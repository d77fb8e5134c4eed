"""Security-deposit economics: the vByte cost model and parallelism bounds.

The worst case for a single functionary is securing N-1 simultaneous
challenge-response protocols, each costing the most expensive path through
the dispute DAG (the hash check at the end of the read-value search).
"""

from __future__ import annotations

SATS_PER_BTC = 100_000_000


class CostTable:
    """Published vByte costs of the challenge-response DAG's transactions:
    the class attributes, each overridden by its argument."""
    commit_proof = 2513
    challenge = 653
    publish_hashes_per_step = 5118
    publish_choice_per_step = 205
    publish_full_trace = 3105
    publish_read_trace = 1063
    sha256_computation = 97780

    def __init__(self, commit_proof: int = commit_proof,
                 challenge: int = challenge,
                 publish_hashes_per_step: int = publish_hashes_per_step,
                 publish_choice_per_step: int = publish_choice_per_step,
                 publish_full_trace: int = publish_full_trace,
                 publish_read_trace: int = publish_read_trace,
                 sha256_computation: int = sha256_computation):
        costs = {name: v for name, v in locals().items() if name != "self"}
        for name, v in costs.items():
            if v < 0:
                raise ValueError(f"{name} must be non-negative")
        vars(self).update(costs)

    @staticmethod
    def default() -> "CostTable":
        return CostTable()


# the CostTable field that prices each dispute publication
DISPUTE_ACTION_VBYTES = {
    "commit-proof": "commit_proof",
    "challenge": "challenge",
    "alt-chain-proof": "challenge",
    "publish-hashes": "publish_hashes_per_step",
    "publish-choice": "publish_choice_per_step",
    "publish-full-trace": "publish_full_trace",
    "read-challenge": "challenge",
    "publish-read-hashes": "publish_hashes_per_step",
    "publish-read-choice": "publish_choice_per_step",
    "execute-leaf": "sha256_computation",
}


class TimingParams:
    """The bridge's timelocks, in ticks."""
    __slots__ = ("t_max", "t_min", "t_force", "t_safety")

    def __init__(self, t_max: int, t_min: int, t_force: int, t_safety: int):
        if not (t_max >= t_min > 0):
            raise ValueError("need t_max >= t_min > 0")
        if t_force < 0 or t_safety < 0:
            raise ValueError("t_force and t_safety must be non-negative")
        self.t_max, self.t_min = t_max, t_min
        self.t_force, self.t_safety = t_force, t_safety


def worst_case_vbytes(table: CostTable, hash_steps: int = 16,
                      choice_steps: int = 16) -> int:
    """Total vBytes of the most expensive dispute path.

    Hash publications happen hash_steps + (hash_steps - 1) times across the
    main and read searches; step choices happen choice_steps + choice_steps
    times.  With the default table and 16-slot searches this is 270332.
    """
    return (table.commit_proof
            + table.challenge
            + table.publish_hashes_per_step * (hash_steps + hash_steps - 1)
            + table.publish_choice_per_step * (choice_steps + choice_steps)
            + table.publish_full_trace
            + table.publish_read_trace
            + table.sha256_computation)


def required_deposit(n_functionaries: int, fee_rate: int,
                     table: CostTable | None = None) -> int:
    """Deposit in satoshis covering N-1 worst-case dispute protocols at
    ``fee_rate`` sats per vByte."""
    if n_functionaries < 1:
        raise ValueError(
            f"need at least one functionary, got {n_functionaries}")
    if fee_rate <= 0:
        raise ValueError(f"fee rate must be positive, got {fee_rate}")
    per_protocol = worst_case_vbytes(table or CostTable())
    return per_protocol * fee_rate * (n_functionaries - 1)


def btc(sats: int) -> str:
    """Format satoshis as a BTC decimal; a single trailing zero is trimmed
    so deposit-table cells read with 7 fractional digits."""
    whole, frac = divmod(sats, SATS_PER_BTC)
    s = f"{whole}.{frac:08d}"
    return s[:-1] if s.endswith("0") else s


def reproduce_deposit_table(fee_rates: list[int] | None = None,
                            ns: list[int] | None = None
                            ) -> list[tuple[int, int, int]]:
    """Deposit grid as (n_functionaries, fee_rate, deposit_sats) rows."""
    fee_rates = fee_rates or [5, 10, 20, 30]
    ns = ns or [10, 25, 50, 100]
    rows = []
    for n in ns:
        for x in fee_rates:
            rows.append((n, x, required_deposit(n, x)))
    return rows


def format_deposit_table(rows: list[tuple[int, int, int]]) -> str:
    lines = [f"{'Functionaries':>13} | {'Fee rate (sats/vByte)':>21} | {'Total amount (BTC)':>18}"]
    for n, x, sats in rows:
        lines.append(f"{n:>13} | {x:>21} | {btc(sats):>18}")
    return "\n".join(lines)


def min_separation(t: TimingParams) -> int:
    """Minimum spacing between one operator's consecutive peg-outs."""
    return (t.t_max - t.t_min) + t.t_force + t.t_safety


def max_parallelism(t_total: int, t_min: int) -> int:
    """Maximum concurrent peg-outs allowed per functionary."""
    if t_min <= 0:
        raise ValueError("t_min must be positive")
    return t_total // t_min
