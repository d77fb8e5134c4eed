"""Block header and template ids are memoised by their content; each must
still equal the hash of that content, taken without the cache."""

import hashlib

from bridgesim import chain, txgraph
from bridgesim.chain import BlockHeader, _digest
from bridgesim.harness import (generate_adversarial_scenarios, run_scenario,
                               scenario_corpus)
from bridgesim.txgraph import build_packet_templates


def template_ids_recomputed(graph):
    for tx in graph.templates.values():
        assert tx.id == hashlib.sha256(tx.serial().encode()).hexdigest()[:16]


def test_cached_ids_equal_cache_free_recomputation(run_with_bridge,
                                                   monkeypatch):
    # the behaviour digest's scenario set, then a whole N = 10, V = 4 graph;
    # every header made is the one its arguments describe, id included
    made = []
    make = BlockHeader.make

    def recording_make(*args):
        made.append((args, make(*args)))
        return made[-1][1]

    monkeypatch.setattr(BlockHeader, "make", staticmethod(recording_make))
    for sc in generate_adversarial_scenarios(60) + scenario_corpus():
        _, bridge = run_with_bridge(sc)
        template_ids_recomputed(bridge.graph)
    for (chain_id, height, parent_id, difficulty, txs), header in made:
        commit = _digest("txs", tuple(txs))
        hid = _digest(chain_id, height, parent_id, difficulty, commit)
        assert header == BlockHeader(chain_id, height, parent_id, difficulty,
                                     commit, hid)
    assert len({h.id for _, h in made}) < len(made)  # headers made again
    g = build_packet_templates([f"f{i}" for i in range(10)], 4, 100_000)
    g.build_all()
    assert len(g.templates) == g.template_count()
    template_ids_recomputed(g)


def test_caches_stay_bounded_over_the_sweep():
    for sc in generate_adversarial_scenarios(500):
        run_scenario(sc)
    for cached, bound in ((chain._header, chain.HEADER_CACHE_SIZE),
                          (txgraph._template_id,
                           txgraph.TEMPLATE_CACHE_SIZE)):
        info = cached.cache_info()
        assert info.maxsize == bound
        assert 0 < info.currsize <= bound
        assert info.hits > 0
