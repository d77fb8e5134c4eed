"""Simulated block chains: headers, forks, fork choice, inclusion proofs.

Two chains are modeled: the source chain (Bitcoin-like) and the secondary
chain.  Difficulty is an abstract positive integer per block; the canonical
tip is the branch with the highest accumulated difficulty, ties broken by
lowest header id so runs are reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import NotIncluded, UnknownBlock, UnknownParent

SOURCE = "source"
SECONDARY = "secondary"


def _digest(*parts: object) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]


def tx_commitment(txs: Iterable[str]) -> str:
    return _digest("txs", tuple(txs))


@dataclass(frozen=True)
class BlockHeader:
    chain_id: str
    height: int
    parent_id: Optional[str]
    difficulty: int
    tx_commitment: str
    id: str

    @staticmethod
    def make(chain_id: str, height: int, parent_id: Optional[str],
             difficulty: int, txs: Iterable[str]) -> "BlockHeader":
        if difficulty <= 0:
            raise ValueError("difficulty must be positive")
        commit = tx_commitment(txs)
        hid = _digest(chain_id, height, parent_id, difficulty, commit)
        return BlockHeader(chain_id, height, parent_id, difficulty, commit, hid)


@dataclass(frozen=True)
class InclusionProof:
    """Binds a tx id to a header's tx commitment.

    The audit path is the full ordered tx list; verification recomputes the
    commitment.  A digest stand-in, not a Merkle tree.
    """

    tx_id: str
    block_id: str
    path: tuple

    def verify(self, header: BlockHeader) -> bool:
        if header.id != self.block_id:
            return False
        if self.tx_id not in self.path:
            return False
        return tx_commitment(self.path) == header.tx_commitment


class ChainView:
    """A tree of headers with accumulated-difficulty fork choice."""

    def __init__(self, chain_id: str):
        self.chain_id = chain_id
        self.genesis = BlockHeader.make(chain_id, 0, None, 1, [])
        self.headers: dict[str, BlockHeader] = {self.genesis.id: self.genesis}
        self.block_txs: dict[str, tuple] = {self.genesis.id: ()}
        self._acc: dict[str, int] = {self.genesis.id: 1}

    def mine_block(self, parent_id: str, txs: list[str],
                   difficulty: int = 1) -> BlockHeader:
        parent = self.headers.get(parent_id)
        if parent is None:
            raise UnknownParent(parent_id)
        header = BlockHeader.make(self.chain_id, parent.height + 1, parent_id,
                                  difficulty, txs)
        self.headers[header.id] = header
        self.block_txs[header.id] = tuple(txs)
        self._acc[header.id] = self._acc[parent_id] + difficulty
        return header

    def accumulated_difficulty(self, block_id: str) -> int:
        if block_id not in self._acc:
            raise UnknownBlock(block_id)
        return self._acc[block_id]

    def tip(self) -> BlockHeader:
        best_acc = max(self._acc.values())
        candidates = [h for h in self.headers.values()
                      if self._acc[h.id] == best_acc]
        return min(candidates, key=lambda h: h.id)

    def canonical_chain(self) -> list[BlockHeader]:
        out = []
        cur: Optional[BlockHeader] = self.tip()
        while cur is not None:
            out.append(cur)
            cur = self.headers.get(cur.parent_id) if cur.parent_id else None
        out.reverse()
        return out

    def is_canonical(self, block_id: str) -> bool:
        if block_id not in self.headers:
            raise UnknownBlock(block_id)
        return any(h.id == block_id for h in self.canonical_chain())

    def confirmations(self, block_id: str) -> int:
        if block_id not in self.headers:
            raise UnknownBlock(block_id)
        chain = self.canonical_chain()
        for i, h in enumerate(chain):
            if h.id == block_id:
                return len(chain) - i
        return 0

    def prove_inclusion(self, tx_id: str, block_id: str) -> InclusionProof:
        if block_id not in self.headers:
            raise UnknownBlock(block_id)
        txs = self.block_txs[block_id]
        if tx_id not in txs:
            raise NotIncluded(f"{tx_id} not in {block_id}")
        return InclusionProof(tx_id, block_id, txs)


@dataclass
class CensorSpec:
    """`party` is censored from `start` for `length` ticks; windows are
    finite (eventual delivery)."""

    party: str
    start: int
    length: int


@dataclass
class SimClock:
    now: int = 0
    censor_windows: list[CensorSpec] = field(default_factory=list)

    def advance(self, ticks: int = 1) -> None:
        self.now += ticks

    def censored_until(self, party: str,
                       tick: Optional[int] = None) -> Optional[int]:
        """End of the first window that censors `party` at `tick`, or None."""
        t = self.now if tick is None else tick
        return next((w.start + w.length for w in self.censor_windows
                     if w.party == party
                     and w.start <= t < w.start + w.length), None)
