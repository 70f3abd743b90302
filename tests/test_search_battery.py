"""A pinned battery of searches: hits and statistics must not move.

Each search's hit rows, counts and enumeration indices and every SearchStats
field but elapsed are stored in data/search_battery.json.  A change to the
search kernel that keeps its output keeps this test passing; one that moves
a hit or a count fails it, naming the first search that differs.  Run this
file as a script to record the battery again:

    PYTHONPATH=src python tests/test_search_battery.py
"""

from __future__ import annotations

import json
from pathlib import Path

from howe5.search_engine import SearchConfig, SearchStats, run_search

DATA = Path(__file__).parent / "data" / "search_battery.json"

HUNT = dict(target="maximal-fp2", p_min=3, p_max=48, max_candidates=100_000, max_hits=3)
SCAN = dict(target="serre-fp", p_min=173, p_max=191, max_candidates=300_000)
CAPS = dict(max_candidates=20_000, max_hits=2)

BATTERY = {
    **{f"hunt seed {s}": dict(HUNT, seed=s) for s in range(8)},
    **{f"scan seed {s}": dict(SCAN, seed=s) for s in range(8)},
    "serre-fp [17, 400]": dict(CAPS, target="serre-fp", p_min=17, p_max=400),
    "serre-fp3 [11, 200]": dict(CAPS, target="serre-fp3", p_min=11, p_max=200),
    "maximal-fp2 [3, 200]": dict(CAPS, target="maximal-fp2", p_min=3, p_max=200),
    "a1 and a5 pinned": dict(CAPS, target="maximal-fp2", p_min=3, p_max=60,
                             fixed=(("a1", 2), ("a5", 5))),
    "a5 pinned": dict(CAPS, target="serre-fp3", p_min=11, p_max=100, fixed=(("a5", 3),)),
    "b5 and a4 pinned": dict(CAPS, target="maximal-fp2", p_min=3, p_max=100,
                             fixed=(("b5", 4), ("a4", 7))),
    "serre-fp p = 181 uncapped": dict(target="serre-fp", p_min=181, p_max=181,
                                      fixed=(("a1", 0),)),
    "serre-fp p = 191 uncapped": dict(target="serre-fp", p_min=191, p_max=191,
                                      fixed=(("a1", 0),)),
    # live rows, which emit through the twist classes
    "README search": dict(target="maximal-fp2", p_min=3, p_max=13, max_candidates=1_000_000,
                          max_hits=20, seed=7),
    "serre-fp3 p = 37 live": dict(target="serre-fp3", p_min=37, p_max=37, max_hits=40,
                                  fixed=(("a1", 0),)),
    "serre-fp p = 271 live": dict(target="serre-fp", p_min=271, p_max=271, max_hits=8,
                                  fixed=(("a1", 0),)),
    "maximal-fp2 p = 23 live": dict(target="maximal-fp2", p_min=23, p_max=23, max_hits=60,
                                    max_candidates=200_000, fixed=(("a1", 0),)),
    # many listed rows whose a cannot emit, with a5 and b5 free
    "maximal-fp2 p = 19 a4 pinned": dict(target="maximal-fp2", p_min=19, p_max=19,
                                         fixed=(("a4", 5),)),
    "serre-fp p = 181 a4 pinned": dict(target="serre-fp", p_min=181, p_max=181,
                                       fixed=(("a1", 0), ("a4", 5))),
    "maximal-fp2 [11, 47] seed 5": dict(target="maximal-fp2", p_min=11, p_max=47,
                                        max_candidates=1_000_000, max_hits=50, seed=5),
}


def outcome(settings: dict) -> dict:
    """The search's hits (row, counts, index) and its statistics but elapsed,
    in JSON types."""
    hits, stats = run_search(SearchConfig(**settings))
    return {
        "hits": [[list(h.row()), {str(j): n for j, n in sorted(h.counts.items())}, list(h.index)]
                 for h in hits],
        "stats": {name: getattr(stats, name) for name in SearchStats.COUNTERS},
    }


def test_battery_matches_the_recording():
    recorded = json.loads(DATA.read_text())
    assert list(recorded) == list(BATTERY)
    for name, settings in BATTERY.items():
        assert outcome(settings) == recorded[name], f"search {name!r} differs"


if __name__ == "__main__":
    lines = [f"{json.dumps(name)}: {json.dumps(outcome(s))}" for name, s in BATTERY.items()]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
