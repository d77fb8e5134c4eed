import pytest

from bridgesim.harness import Runner


@pytest.fixture(scope="session")
def run_with_bridge():
    """Runs a scenario the way ``run_scenario`` does and returns its report
    with the run's bridge, whose records the checker read."""
    def run(scenario):
        runner = Runner(scenario)
        runner.setup()
        runner.run_pegins()
        runner.run_theft_attempts()
        runner.run_pegouts()
        return runner.finish(), runner.bridge
    return run
