"""The one-pass log checker against a frozen copy of the ten-pass checker it
replaced, over the logs runs write and those logs mutated, and the saved-log
reader's refusals."""

import random
import re

import pytest

from bridgesim.errors import MalformedInput
from bridgesim.harness import (Verdict, check_invariants,
                               generate_adversarial_scenarios,
                               scenario_corpus)
from bridgesim.protocol import EVENT_SCHEMA, INTEGER_FIELDS, read_log


# -- reference: the ten-pass checker, frozen ----------------------------------

def _parse(line: str) -> dict:
    return dict(part.partition("=")[::2] for part in line.split())


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
    if value.removeprefix("-").isdecimal():
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


def _in_order(log):
    """``log`` with each ``seq`` its position and each ``t`` lifted to the
    previous line's tick, so that only what a mutation changed can make
    ``read_log`` refuse it."""
    out, last = [], None
    for seq, line in enumerate(log, 1):
        t, _, event = line.split(" ", 2)
        t = int(t.removeprefix("t="))
        last = t if last is None else max(last, t)
        out.append(f"t={last} seq={seq} {event}")
    return out


def _accepted_with_reference_verdicts(log) -> bool:
    """False if ``read_log`` refuses ``log``; else True, once the checker
    has given the reference's verdicts, details included, from the rows
    read and from the lines alike."""
    try:
        rows = read_log(log)
    except MalformedInput:
        return False
    want = reference_check_invariants(log)
    assert check_invariants(rows) == want
    assert check_invariants(log) == want
    return True


def test_run_verdicts_match_reference(runs):
    for report, b in runs:
        # a Verdict equals any tuple of its fields, so its type is checked
        assert {type(v) for v in report.verdicts} == {Verdict}
        assert report.verdicts == reference_check_invariants(report.log)
        assert check_invariants(b.rows) == report.verdicts
        assert _accepted_with_reference_verdicts(report.log)


def _refusal(log) -> str:
    with pytest.raises(MalformedInput) as refused:
        read_log(log)
    return str(refused.value)


def _with_token(log, i, j, token):
    """``log`` with token ``j`` of line ``i`` replaced by ``token``."""
    tokens = log[i].split(" ")
    return log[:i] + [" ".join(tokens[:j] + [token] + tokens[j + 1:])] \
        + log[i + 1:]


def test_every_marked_integer_is_checked(runs):
    # each field the schema marks an integer, edited to a non-integer on
    # the first line that has it, makes the log malformed
    unchecked = set(INTEGER_FIELDS)
    for report, _ in runs:
        for i, line in enumerate(report.log):
            for j, token in enumerate(line.split(" ")):
                name = token.partition("=")[0]
                if name in unchecked:
                    edited = _with_token(report.log, i, j, f"{name}=1.5")
                    assert _refusal(edited) == (
                        f"line {i + 1} has a non-integer {name}: '1.5'")
                    unchecked.discard(name)
    assert not unchecked


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663"
                             "\u0664\u0665\u0666\u0667\u0668\u0669")


def _respellings(value):
    """An integer as ``format()`` writes it, written as ``int()`` still
    reads it: zero-padded, in Arabic-Indic digits, and ``-0`` for 0."""
    sign, digits = ("-", value[1:]) if value.startswith("-") else ("", value)
    yield f"{sign}0{digits}"
    yield sign + digits.translate(ARABIC_INDIC)
    if value == "0":
        yield "-0"


def test_every_integer_respelled_is_refused(runs):
    # t, seq and every marked integer of the corpus logs, one at a time,
    # written as int() still reads it but format() never writes it: each
    # edit is refused, so a log read_log accepts renders back to itself
    integers = INTEGER_FIELDS | {"t", "seq"}
    respelled = 0
    for report, _ in runs[:len(scenario_corpus())]:
        for i, line in enumerate(report.log):
            for j, token in enumerate(line.split(" ")):
                name, _, value = token.partition("=")
                if name not in integers:
                    continue
                for new in _respellings(value):
                    assert int(new) == int(value)
                    edited = _with_token(report.log, i, j, f"{name}={new}")
                    assert _refusal(edited) == (
                        f"line {i + 1} has a non-canonical {name}: {new!r}")
                    respelled += 1
    assert respelled > 2000


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
        read_log(report.log)
        edits += [(report.log, i, line)
                  for i, line in _schema_edits(report.log, rng, names)]
    for log, i, line in rng.sample(edits, 1500):
        _refusal(log[:i] + [line] + log[i + 1:])


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutated_logs_match_reference(runs, mutation):
    # every mutated log, rewritten in order, is either refused by read_log
    # or gets the reference's verdicts, details included.
    # Each mutation takes every third run, so the runs share the mutations.
    mutate = MUTATIONS[mutation]
    rng = random.Random(mutation)
    accepted = failed = 0
    for report, _ in runs[list(MUTATIONS).index(mutation) % 3::3]:
        log = mutate(rng, report.log)
        if log is None:
            continue
        log = _in_order(log)
        if _accepted_with_reference_verdicts(log):
            accepted += 1
            failed += not all(v.passed
                              for v in reference_check_invariants(log))
    assert accepted >= 100
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
    # exclusion: a party is excluded from its first burn on, not from a
    # later restated one
    "act-after-two-burns": lambda l: l + [
        _line(l, "enablers_burnt"),
        re.sub(r" operator=\S+", " operator=f1", _line(l, "kickoff"))],
    # a second parties line would rename the honest set, and a second
    # params line reset the bound: read_log refuses both
    "parties-restated": lambda l: l + [
        next(x for x in _honest_loser(l) if " kind=parties " in x)],
    "params-restated": lambda l: l + [re.sub(r"bound=\d+", "bound=0", next(
        x for x in l if " kind=params " in x))],
}
REFUSED = {"parties-restated": "a second meta kind=parties",
           "params-restated": "a second meta kind=params"}


@pytest.mark.parametrize("craft", CRAFTED)
def test_crafted_logs_match_reference(runs, craft):
    # cases where a verdict keeps the first or the last of several events,
    # each rewritten in order; read_log accepts each but those it refuses
    report, _ = runs[2]
    assert report.scenario == "adversary-FakeProofProver"
    log = _in_order(CRAFTED[craft](report.log))
    if craft in REFUSED:
        assert _refusal(log) == f"line {len(log)} is {REFUSED[craft]}"
    else:
        assert _accepted_with_reference_verdicts(log)
