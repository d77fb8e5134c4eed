"""Light-client verification predicates.

``check_chain`` validates that a header sequence on the secondary chain links
a peg-in on the source chain to a peg-out block, with the claimed accumulated
difficulty.  ``check_alt_chain`` validates a competing sequence that excludes
the contested peg-out block.  Both are pure functions over their inputs; they
never consult the live canonical chain.  ``admit_counter_proof`` decides
whether a counter-proof may open the nested dispute game.
"""

from __future__ import annotations

from typing import NamedTuple

from .chain import BlockHeader, InclusionProof
from .errors import MalformedInput


class CheckChainInput(NamedTuple):
    headers: tuple[BlockHeader, ...]
    pegin_proof: InclusionProof
    pegin_header: BlockHeader  # source-chain header named by pegin_proof
    pegout_proof: InclusionProof
    claimed_difficulty: int


class AltChainInput(NamedTuple):
    headers: tuple[BlockHeader, ...]
    pegin_proof: InclusionProof
    pegin_header: BlockHeader
    contested_block_id: str  # the peg-out block the alt chain must exclude
    claimed_difficulty: int


def _pegin_linked(inp: CheckChainInput | AltChainInput) -> bool:
    """Whether the peg-in proof verifies against its source header;
    ``MalformedInput`` first for no headers or headers not parent-linked."""
    headers = inp.headers
    if not headers:
        raise MalformedInput("empty header sequence")
    for prev, cur in zip(headers, headers[1:]):
        if cur.parent_id != prev.id or cur.height != prev.height + 1:
            raise MalformedInput("headers not parent-linked")
    return inp.pegin_proof.verify(inp.pegin_header)


def check_chain(inp: CheckChainInput) -> bool:
    """True iff the header sequence links the peg-in to the peg-out.

    Clauses: (a) headers parent-linked, (b) peg-in proof verifies against its
    source header, (c) peg-out proof verifies against a header inside the
    sequence, (d) difficulties sum to the claimed total.
    """
    if not _pegin_linked(inp):
        return False
    by_id = {h.id: h for h in inp.headers}
    target = by_id.get(inp.pegout_proof.block_id)
    if target is None or not inp.pegout_proof.verify(target):
        return False
    return sum(h.difficulty for h in inp.headers) == inp.claimed_difficulty


def check_alt_chain(inp: AltChainInput) -> bool:
    """True iff the alternative sequence is valid and excludes the contested
    peg-out block while keeping the peg-in linkage."""
    if not _pegin_linked(inp):
        return False
    if any(h.id == inp.contested_block_id for h in inp.headers):
        return False
    return sum(h.difficulty for h in inp.headers) == inp.claimed_difficulty


def admit_counter_proof(d1: int, d2: int) -> bool:
    """Counter-proof challenge is spendable only for strictly higher work."""
    return d2 > d1
