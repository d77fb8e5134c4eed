"""The full off-default space pin: the log digest of the 35,952 runs of
``pins.full_space_scenarios``, too many for tier-1, which does not collect
this file.  Run it from the repository root:

    PYTHONPATH=src python tests/full_space_pin.py

It prints the run count and the digest, and exits 1 unless both are the
pinned ones.
"""

import sys

import pins


def main() -> int:
    digest, runs = pins.log_digest(pins.full_space_scenarios())
    print(f"runs {runs} digest {digest}")
    return 0 if (digest, runs) == pins.FULL_SPACE_LOGS else 1


if __name__ == "__main__":
    sys.exit(main())
