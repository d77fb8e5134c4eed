"""Simulated block chains: headers, forks, fork choice, inclusion proofs.

Two chains are modeled: the source chain (Bitcoin-like) and the secondary
chain.  Difficulty is an abstract positive integer per block; the canonical
tip is the branch with the highest accumulated difficulty, ties broken by
lowest header id so runs are reproducible.

Fork choice is kept up to date as blocks are mined, the way Bitcoin Core
keeps its active chain: the tip changes only when a new header beats it,
and the canonical chain is a list indexed by height, whose last header is
the tip and of which a reorg rewrites only the part after the fork point.
Tip, canonical membership and confirmations are then O(1) queries.

A header is content-addressed, and runs of the same shape mine the same
headers, so each distinct header is made and hashed once per process and
kept in a bounded cache keyed by its exact content.  Headers are frozen, so
two views may hold the same instance; each view still holds one header per
id.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional

from .errors import NotIncluded, UnknownBlock, UnknownParent

SOURCE = "source"
SECONDARY = "secondary"

# distinct headers kept once made.  At 128, three quarters of the
# headers a sweep mines are hits (87% at 256).  A set-up that mines
# thousands of one-off alt-chain headers fills the cache, and a process
# that imports the package afresh keeps each import's full cache until the
# cyclic collector runs, so the bound is kept small.
HEADER_CACHE_SIZE = 128


def _digest(*parts: object) -> str:
    """Each part's repr, each followed by a NUL byte, hashed."""
    data = "\x00".join([*map(repr, parts), ""]).encode()
    return hashlib.sha256(data).hexdigest()[:16]


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
        return _header(chain_id, height, parent_id, difficulty, tuple(txs))


# typed: 1 and True hash alike but have different reprs, so different ids
@lru_cache(maxsize=HEADER_CACHE_SIZE, typed=True)
def _header(chain_id: str, height: int, parent_id: Optional[str],
            difficulty: int, txs: tuple) -> BlockHeader:
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
        # the canonical chain, indexed by height
        self._canonical: list[BlockHeader] = [self.genesis]

    def mine_block(self, parent_id: str, txs: list[str],
                   difficulty: int = 1) -> BlockHeader:
        parent = self.headers.get(parent_id)
        if parent is None:
            raise UnknownParent(parent_id)
        header = BlockHeader.make(self.chain_id, parent.height + 1, parent_id,
                                  difficulty, txs)
        if header.id in self.headers:
            # the same block mined again changes nothing
            return self.headers[header.id]
        self.headers[header.id] = header
        self.block_txs[header.id] = tuple(txs)
        acc = self._acc[header.id] = self._acc[parent_id] + difficulty
        canonical, tip = self._canonical, self._canonical[-1]
        if parent is tip:
            # a positive difficulty makes a block on the tip the heavier
            canonical.append(header)
        elif (acc, tip.id) > (self._acc[tip.id], header.id):
            # heavier, or as heavy with a lower id: rewrite the chain after
            # the last header the new tip's branch shares with it
            branch, h = [], header
            while h.height >= len(canonical) or canonical[h.height] is not h:
                branch.append(h)
                h = self.headers[h.parent_id]
            del canonical[h.height + 1:]
            canonical.extend(reversed(branch))
        return header

    def tip(self) -> BlockHeader:
        return self._canonical[-1]

    def canonical_chain(self) -> list[BlockHeader]:
        return list(self._canonical)

    def is_canonical(self, block_id: str) -> bool:
        h = self.headers.get(block_id)
        if h is None:
            raise UnknownBlock(block_id)
        return h.height < len(self._canonical) and \
            self._canonical[h.height] is h

    def confirmations(self, block_id: str) -> int:
        if not self.is_canonical(block_id):
            return 0
        return len(self._canonical) - self.headers[block_id].height

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

    def censored_until(self, party: str, tick: int) -> Optional[int]:
        """First tick from `tick` on that no window of `party` covers, or None
        if none covers `tick`; overlapping and adjacent windows act as one."""
        end = tick
        while ends := [w.start + w.length for w in self.censor_windows
                       if w.party == party
                       and w.start <= end < w.start + w.length]:
            end = max(ends)
        return None if end == tick else end
