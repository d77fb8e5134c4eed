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
headers, so headers are cached per process, keyed by their exact content,
in two bounded tiers: a first-sight tier, and a kept tier that a header
joins when it is looked up again while first seen (the admission rule of
2Q), so one-off headers never displace the ones that recur.  Headers are
frozen, so two views may hold the same instance; each view still holds one
header per id.
"""

from __future__ import annotations

from hashlib import sha256
from typing import Iterable, NamedTuple, Optional

from .errors import NotIncluded, UnknownBlock, UnknownParent

SOURCE = "source"
SECONDARY = "secondary"

# headers seen once, oldest evicted first; the kept tier holds up to eight
# times as many, which covers the 1,047 a 1,500-op sweep mines.  A process
# that imports the package afresh keeps each import's tiers until the
# cyclic collector runs, so a set-up's one-off alt-chain headers must stay
# in the small tier.
HEADER_CACHE_SIZE = 128
_FIRST_SIGHT: dict = {}
_KEPT: dict = {}


def _digest(*parts: object) -> str:
    """Each part's repr, each followed by a NUL byte, hashed."""
    data = ("%r\x00" * len(parts)) % parts
    return sha256(data.encode()).hexdigest()[:16]


def tx_commitment(txs: Iterable[str]) -> str:
    return _digest("txs", tuple(txs))


class BlockHeader(NamedTuple):
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


def _header(chain_id: str, height: int, parent_id: Optional[str],
            difficulty: int, txs: tuple) -> BlockHeader:
    # 1 and True hash alike but have different reprs, so different ids
    key = (chain_id, height, parent_id, difficulty, txs, type(height),
           type(difficulty))
    header = _KEPT.get(key)
    if header is not None:
        return header
    header = _FIRST_SIGHT.pop(key, None)
    if header is not None:
        _KEPT[key] = header
        if len(_KEPT) > 8 * HEADER_CACHE_SIZE:
            del _KEPT[next(iter(_KEPT))]
        return header
    commit = tx_commitment(txs)
    hid = _digest(chain_id, height, parent_id, difficulty, commit)
    header = _FIRST_SIGHT[key] = BlockHeader(chain_id, height, parent_id,
                                             difficulty, commit, hid)
    if len(_FIRST_SIGHT) > HEADER_CACHE_SIZE:
        del _FIRST_SIGHT[next(iter(_FIRST_SIGHT))]
    return header


class InclusionProof(NamedTuple):
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

    def mine_block(self, parent_id: str, txs: Iterable[str],
                   difficulty: int = 1) -> BlockHeader:
        headers = self.headers
        parent = headers.get(parent_id)
        if parent is None:
            raise UnknownParent(parent_id)
        if difficulty <= 0:
            raise ValueError("difficulty must be positive")
        txs = tuple(txs)
        header = _header(self.chain_id, parent.height + 1, parent_id,
                         difficulty, txs)
        hid = header.id
        if hid in headers:
            # the same block mined again changes nothing
            return headers[hid]
        headers[hid] = header
        self.block_txs[hid] = txs
        acc = self._acc[hid] = self._acc[parent_id] + difficulty
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


class CensorSpec(NamedTuple):
    """`party` is censored from `start` for `length` ticks; windows are
    finite (eventual delivery)."""

    party: str
    start: int
    length: int


class SimClock:
    __slots__ = ("now", "censor_windows")

    def __init__(self, censor_windows: Optional[list[CensorSpec]] = None):
        self.now = 0
        self.censor_windows = [] if censor_windows is None else censor_windows

    def censored_until(self, party: str, tick: int) -> Optional[int]:
        """First tick from `tick` on that no window of `party` covers, or None
        if none covers `tick`; overlapping and adjacent windows act as one."""
        if not self.censor_windows:
            return None
        end = tick
        while ends := [w.start + w.length for w in self.censor_windows
                       if w.party == party
                       and w.start <= end < w.start + w.length]:
            end = max(ends)
        return None if end == tick else end
