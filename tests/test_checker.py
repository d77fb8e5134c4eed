"""The one-pass log checker against a frozen copy of the ten-pass checker it
replaced, and a run's rows and records against the parse of its own log."""

import random
import re

import pytest

from bridgesim.harness import (INTEGER, Verdict, _parse, check_invariants,
                               generate_adversarial_scenarios, malformed_log,
                               scenario_corpus)
from bridgesim.protocol import EVENT_SCHEMA, INTEGER_FIELDS


# -- reference: the ten-pass checker, frozen ----------------------------------

def reference_check_invariants(log: list[str]) -> list[Verdict]:
    events = [_parse(l) for l in log]
    meta = {e.get("kind"): e for e in events if e.get("ev") == "meta"}
    honest = set()
    if "parties" in meta and meta["parties"].get("honest", "-") != "-":
        honest = set(meta["parties"]["honest"].split(","))
    bound = int(meta.get("params", {}).get("bound", 10 ** 9))

    verdicts = []

    balances: dict[str, int] = {}
    for e in events:
        if e.get("ev") == "balance":
            balances[e["account"]] = int(e["amount"])
    start_total = sum(balances.values())
    ok, detail = True, ""
    for e in events:
        if e.get("ev") != "transfer":
            continue
        amt = int(e["amount"])
        balances[e["src"]] = balances.get(e["src"], 0) - amt
        balances[e["dst"]] = balances.get(e["dst"], 0) + amt
    finals = {e["account"]: int(e["amount"])
              for e in events if e.get("ev") == "final_balance"}
    for account, amount in finals.items():
        if balances.get(account, 0) != amount:
            ok, detail = False, f"{account}: {balances.get(account, 0)} != {amount}"
            break
    if ok and sum(finals.values()) != start_total:
        ok, detail = False, "total drifted"
    verdicts.append(Verdict("conservation", ok, detail))

    seen: set[str] = set()
    dup = ""
    for e in events:
        if e.get("ev") == "spend":
            if e["out"] in seen:
                dup = e["out"]
                break
            seen.add(e["out"])
    verdicts.append(Verdict("single_spend", not dup, dup))

    linked = {}
    canonical_burns = set()
    safety_ok, safety_detail = True, ""
    for e in events:
        ev = e.get("ev")
        if ev == "pegout_linked":
            linked[e["vmxo"]] = e["tx"]
        elif ev == "burn_confirmed" and e.get("canonical") == "1":
            canonical_burns.add(e["tx"])
        elif ev == "unlocked":
            burn = linked.get(e["vmxo"])
            if burn is None or burn not in canonical_burns:
                safety_ok = False
                safety_detail = f"unlock of {e['vmxo']} without canonical burn"
        elif ev == "theft":
            safety_ok = False
            safety_detail = f"theft of {e['vmxo']} by {e['thief']}"
        elif ev == "slashed" and e["loser"] in honest:
            safety_ok = False
            safety_detail = f"honest {e['loser']} slashed"
    verdicts.append(Verdict("safety", safety_ok, safety_detail))

    pegin_users = [e["user"] for e in events if e.get("ev") == "pegin_requested"]
    minted_users = {e["user"] for e in events if e.get("ev") == "minted"}
    late = [f"pegin {u} never minted" for u in pegin_users
            if u not in minted_users]
    burns = {e["tx"]: int(e["t"]) for e in events if e.get("ev") == "pegout_burn"}
    fronted = {}
    for e in events:
        if e.get("ev") == "fronted":
            fronted.setdefault(e["tx"].split("front:", 1)[-1].split(":", 1)[-1],
                               int(e["t"]))
    late += [f"burn {tx} not fronted in time" for tx, t0 in burns.items()
             if fronted.get(tx) is None or fronted[tx] - t0 > bound]
    verdicts.append(Verdict("liveness", not late, "; ".join(late)))

    excl_ok, excl_detail = True, ""
    burnt_at: dict[str, int] = {}
    for e in events:
        ev = e.get("ev")
        seq = int(e.get("seq", 0))
        if ev == "enablers_burnt":
            burnt_at.setdefault(e["loser"], seq)
        actor = e.get("operator") if ev in ("kickoff", "fronted") \
            else e.get("actor") if ev == "dispute_pub" else None
        if actor in burnt_at and seq > burnt_at[actor]:
            excl_ok, excl_detail = False, f"{actor} acted after burn"
    verdicts.append(Verdict("exclusion", excl_ok, excl_detail))
    return verdicts


# -- runs ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def runs(run_with_bridge):
    """(report, bridge) of every corpus scenario and of the 500-scenario
    criterion-6 sweep."""
    return [run_with_bridge(sc) for sc in
            scenario_corpus() + generate_adversarial_scenarios(500)]


def test_records_equal_parsed_log(runs):
    # the checker may read a run's rows or records instead of its lines only
    # because they are the same events
    for report, b in runs:
        assert report.rows is b.rows
        assert [_parse(l) for l in b.events] == report.records, report.scenario
        assert report.log == b.events


# -- mutations -----------------------------------------------------------------

def _delete(rng, log):
    i = rng.randrange(len(log))
    return log[:i] + log[i + 1:]


def _duplicate(rng, log):
    i, j = rng.randrange(len(log)), rng.randrange(len(log) + 1)
    return log[:j] + [log[i]] + log[j:]


def _swap(rng, log):
    i, j = sorted(rng.sample(range(len(log)), 2))
    return log[:i] + [log[j]] + log[i + 1:j] + [log[i]] + log[j + 1:]


def _edit(rng, log):
    """One field's value changed: an integer to another integer, any other
    value to another value the log gives that field, or to a new one."""
    i = rng.randrange(len(log))
    fields = log[i].split()
    k = rng.choice([n for n, f in enumerate(fields) if not f.startswith("ev=")])
    name, _, value = fields[k].partition("=")
    if INTEGER.fullmatch(value):
        new = str(int(value) + rng.choice([-3, -1, 1, 2, 1000]))
    else:
        others = sorted({f.partition("=")[2] for line in log
                         for f in line.split()
                         if f.startswith(f"{name}=")} - {value})
        new = rng.choice(others) if others and rng.random() < 0.8 \
            else f"edited{rng.randrange(9)}"
    fields[k] = f"{name}={new}"
    return log[:i] + [" ".join(fields)] + log[i + 1:]


def _move_after(log, i, j):
    """Line ``i`` moved to just after line ``j`` (``i < j``)."""
    return log[:i] + log[i + 1:j + 1] + [log[i]] + log[j + 1:]


def _balance_after_transfer(rng, log):
    balances = [i for i, l in enumerate(log) if " ev=balance " in l]
    i = rng.choice(balances)
    transfers = [j for j, l in enumerate(log) if " ev=transfer " in l and j > i]
    return _move_after(log, i, rng.choice(transfers)) if transfers else None


def _parties_after_slash(rng, log):
    slashes = [j for j, l in enumerate(log) if " ev=slashed " in l]
    if not slashes:
        return None
    i = next(i for i, l in enumerate(log) if " kind=parties " in l)
    return _move_after(log, i, rng.choice(slashes))


MUTATIONS = {
    "deleted": _delete,
    "duplicated": _duplicate,
    "swapped": _swap,
    "edited": _edit,
    "balance-after-transfer": _balance_after_transfer,
    "parties-after-slash": _parties_after_slash,
    "honest-loser-parties-after-slash":
        lambda rng, log: _parties_after_slash(rng, _honest_loser(log)),
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (KeyError, ValueError) as exc:
        return type(exc).__name__


def _assert_same_verdicts(log, records):
    want = _outcome(reference_check_invariants, log)
    assert _outcome(check_invariants, log) == want
    assert _outcome(check_invariants, records) == want


def test_run_verdicts_match_reference(runs):
    for report, b in runs:
        assert report.verdicts == reference_check_invariants(report.log)
        assert check_invariants(b.rows) == report.verdicts
        _assert_same_verdicts(report.log, report.records)
        assert malformed_log(report.log) is None
        assert malformed_log(report.records) is None


def test_events_may_mix_records_and_lines(runs):
    report, b = runs[2]
    third = len(b.rows) // 3
    assert check_invariants(b.rows[:third] + report.records[third:2 * third]
                            + report.log[2 * third:]) == report.verdicts
    half = len(report.records) // 2
    mixed = report.records[:half] + report.log[half:]
    assert check_invariants(mixed) == report.verdicts
    assert malformed_log(mixed) is None
    # a record is checked as the line it renders
    broken = mixed[:half - 1] + [dict(report.records[half - 1], seq="x")] \
        + mixed[half:]
    assert malformed_log(broken) == (
        f"line {half} is not an event: "
        f"{report.log[half - 1].replace(f'seq={half}', 'seq=x')[:60]!r}")
    assert malformed_log([{"t": "0", "seq": "1"}]) == (
        "line 1 is not an event: 't=0 seq=1'")


def test_every_marked_integer_is_checked(runs):
    # each field the schema marks an integer, edited to a non-integer on
    # the first line that has it, makes the log malformed
    unchecked = set(INTEGER_FIELDS)
    for report, _ in runs:
        for i, r in enumerate(report.records):
            for name in unchecked & r.keys():
                edited = report.records[:i] + [dict(r, **{name: "1.5"})] \
                    + report.records[i + 1:]
                assert malformed_log(edited) == (
                    f"line {i + 1} has a non-integer {name}: '1.5'")
                unchecked.discard(name)
    assert not unchecked


def _schema_edits(log, rng, names):
    """(line index, edited line) of every edit of one token of one line of
    ``log``: its key renamed to one of ``names``, or the token dropped or
    repeated."""
    for i, line in enumerate(log):
        tokens = line.split()
        for j, token in enumerate(tokens):
            key, _, value = token.partition("=")
            renamed = rng.choice([n for n in names if n != key])
            for edit in ([f"{renamed}={value}"], [], [token, token]):
                yield i, " ".join(tokens[:j] + edit + tokens[j + 1:])


def test_every_sampled_schema_edit_of_the_corpus_is_malformed(runs):
    # a seeded sample of the corpus logs' schema edits: check refused all
    # 13,296 of them when they were counted, which takes seconds to run
    rng = random.Random(23)
    names = sorted({"t", "seq", "ev"}.union(*EVENT_SCHEMA.values()))
    edits = []
    for report, _ in runs[:len(scenario_corpus())]:
        assert malformed_log(report.log) is None, report.scenario
        edits += [(report.log, i, line)
                  for i, line in _schema_edits(report.log, rng, names)]
    for log, i, line in rng.sample(edits, 1500):
        assert malformed_log(log[:i] + [line] + log[i + 1:]) is not None, line


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutated_logs_match_reference(runs, mutation):
    # every mutated log gets the reference's verdicts, details included,
    # from lines and from their records alike, and the same malformed_log
    # reason from both.
    # Each mutation takes every third run, so the runs share the mutations.
    mutate = MUTATIONS[mutation]
    rng = random.Random(mutation)
    mutated = failed = 0
    for report, _ in runs[list(MUTATIONS).index(mutation) % 3::3]:
        log = mutate(rng, report.log)
        if log is None:
            continue
        mutated += 1
        records = [_parse(l) for l in log]
        _assert_same_verdicts(log, records)
        failed += not all(v.passed for v in reference_check_invariants(log))
        assert malformed_log(records) == malformed_log(log)
    assert mutated >= 50
    if mutation != "parties-after-slash":
        assert failed > 0  # the mutations reach the verdicts


def _with(lines, at, new):
    return lines[:at] + [new] + lines[at:]


def _index(log, ev):
    return next(i for i, l in enumerate(log) if f" ev={ev} " in l)


def _line(log, ev):
    return log[_index(log, ev)]


def _retimed(line, t):
    return re.sub(r"^t=-?\d+", f"t={t}", line)


def _honest_loser(log):
    """The log with its parties line naming its first slashed loser honest
    (unchanged without a slash)."""
    slashed = [l for l in log if " ev=slashed " in l]
    if not slashed:
        return log
    loser = re.search(r" loser=(\S+)", slashed[0]).group(1)
    i = next(i for i, l in enumerate(log) if " kind=parties " in l)
    return _with(log[:i] + log[i + 1:], i,
                 re.sub(r" honest=\S+", f" honest={loser}", log[i]))


THEFT = "t=99 seq=999 ev=theft amount=1 thief=f2 vmxo=pkt0:vmxo2"
CRAFTED = {
    # safety names the last fault in the log
    "theft-after-honest-slash": lambda l: _with(
        _honest_loser(l), _index(l, "slashed") + 1, THEFT),
    "honest-slash-after-theft": lambda l: _with(
        _honest_loser(l), _index(l, "slashed"), THEFT),
    "bad-unlock-after-honest-slash": lambda l: _with(
        _honest_loser(l), _index(l, "slashed") + 1,
        "t=99 seq=999 ev=unlocked amount=1 operator=f2 vmxo=unlinked"),
    # single-spend names the first output spent twice
    "two-double-spends": lambda l: l + [
        x for x in l if " ev=spend " in x][-1:0:-1],
    # liveness: a burn counts from its last line, a front from its first
    "burn-restated-early": lambda l: _with(
        l, 0, _retimed(_line(l, "pegout_burn"), -10 ** 4)),
    "front-replayed-late": lambda l: l + [
        _retimed(_line(l, "fronted"), 10 ** 4)],
    "pegin-requested-twice": lambda l: [
        x for x in _with(l, 3, _line(l, "pegin_requested"))
        if x != _line(l, "minted")],
    # conservation: the last balance and final balance of an account count
    "balance-restated": lambda l: _with(
        l, 5, _line(l, "balance").replace("amount=", "amount=7")),
    "final-balance-restated": lambda l: l + [
        _line(l, "final_balance").replace("amount=", "amount=7")],
    # exclusion: a party is excluded from its first burn on, whatever
    # ``seq`` a later burn line carries
    "act-after-two-burns": lambda l: l + [
        re.sub(r" seq=\d+ ", " seq=99999 ", _line(l, "enablers_burnt")),
        re.sub(r" seq=\d+ (.*) operator=\S+", rf" seq={len(l) + 2} \1 "
               "operator=f1", _line(l, "kickoff"))],
    # the last parties line names the honest set
    "parties-restated": lambda l: l + [
        next(x for x in _honest_loser(l) if " kind=parties " in x)],
    # the last params line sets the bound
    "params-restated": lambda l: l + [re.sub(r"bound=\d+", "bound=0", next(
        x for x in l if " kind=params " in x))],
}


@pytest.mark.parametrize("craft", CRAFTED)
def test_crafted_logs_match_reference(runs, craft):
    # cases where a verdict keeps the first or the last of several events
    report, _ = runs[2]
    assert report.scenario == "adversary-FakeProofProver"
    log = CRAFTED[craft](report.log)
    _assert_same_verdicts(log, [_parse(l) for l in log])
