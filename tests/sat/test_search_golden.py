"""Search-identity goldens for the pure-Python CDCL solver.

The solver's hot paths may be rewritten for speed, but never so that the
search changes: every pin below was captured from the reference kernel,
and a faster kernel must reproduce the same conflicts, decisions,
propagations, restarts, learned and deleted clauses per call, and the
same models.  A change to any number here means the search drifted —
which would silently move every exact-solver benchmark fingerprint.

Two layers are pinned:

* ``ExactSolver`` on seeded QUBIKOS ring8/line8 instances in the
  incremental, fresh and pinned-``initial_mapping`` modes: the per-``k``
  ``solver_stats`` and a hash of the decoded circuit and initial mapping;
* one long ``CdclSolver`` session (a seeded random 3-SAT formula) whose
  calls cross a ``conflict_limit`` cut, assumption solves and a final
  full solve, long enough that VSIDS activity is rescaled
  (``var_inc > 1e100``) and the learned-clause database is reduced.
"""

import hashlib
import json
import random

import pytest

from repro.arch import get_architecture
from repro.qls.exact import ExactSolver
from repro.qubikos import Mapping, generate
from repro.sat import CdclSolver, SolverResult

STAT_KEYS = ("conflicts", "decisions", "propagations", "restarts",
             "learned", "deleted")


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: (architecture, designed swaps, generator seed, mode) -> pins.  Each
#: per-k row is (k, conflicts, decisions, propagations, restarts,
#: learned, deleted); ``circuit`` hashes the decoded circuit's and
#: initial mapping's ``to_dict()``.
EXACT_GOLDEN = {
    ("line8", 3, 5, "fresh"): {
        "per_k": [
            (0, 8, 7, 257, 0, 7, 0),
            (1, 147, 280, 6575, 1, 146, 0),
            (2, 207, 367, 13248, 2, 206, 0),
            (3, 256, 541, 18684, 2, 256, 0),
        ],
        "circuit": "2e46d7f13d1eb9fd",
    },
    ("line8", 4, 6, "incremental"): {
        "per_k": [
            (0, 8, 7, 312, 0, 8, 0),
            (1, 47, 132, 2115, 0, 47, 0),
            (2, 79, 236, 3349, 0, 79, 0),
            (3, 142, 248, 10411, 1, 142, 0),
            (4, 71, 165, 4710, 0, 71, 0),
        ],
        "circuit": "c2fb619d9cf45805",
    },
    ("line8", 4, 6, "pinned"): {
        "per_k": [
            (0, 0, 0, 113, 0, 0, 0),
            (1, 2, 2, 146, 0, 2, 0),
            (2, 7, 11, 868, 0, 7, 0),
            (3, 29, 43, 4177, 0, 29, 0),
            (4, 44, 62, 6856, 0, 44, 0),
        ],
        "circuit": "57d548a1f46855fb",
    },
    ("line8", 4, 7, "pinned"): {
        "per_k": [
            (0, 0, 0, 115, 0, 0, 0),
            (1, 2, 2, 143, 0, 2, 0),
            (2, 6, 9, 820, 0, 6, 0),
            (3, 22, 31, 3263, 0, 22, 0),
            (4, 40, 73, 8233, 0, 40, 0),
        ],
        "circuit": "21f7aa8a561191d5",
    },
    ("line8", 5, 8, "pinned"): {
        "per_k": [
            (0, 0, 0, 141, 0, 0, 0),
            (1, 2, 2, 166, 0, 2, 0),
            (2, 6, 7, 565, 0, 6, 0),
            (3, 26, 27, 2992, 0, 26, 0),
            (4, 48, 62, 8293, 0, 48, 0),
            (5, 80, 163, 11115, 0, 80, 0),
        ],
        "circuit": "894ba234be1b56d4",
    },
    ("ring8", 3, 1, "fresh"): {
        "per_k": [
            (0, 8, 7, 216, 0, 7, 0),
            (1, 64, 110, 3225, 0, 63, 0),
            (2, 433, 788, 28642, 3, 432, 0),
            (3, 299, 673, 21482, 2, 299, 0),
        ],
        "circuit": "44b3c86a472aad3a",
    },
    ("ring8", 3, 1, "incremental"): {
        "per_k": [
            (0, 8, 7, 238, 0, 8, 0),
            (1, 23, 42, 1454, 0, 23, 0),
            (2, 209, 423, 11233, 2, 209, 0),
            (3, 7, 27, 898, 0, 7, 0),
        ],
        "circuit": "a68e47603d91a122",
    },
    ("ring8", 3, 1, "pinned"): {
        "per_k": [
            (0, 0, 0, 95, 0, 0, 0),
            (1, 8, 7, 404, 0, 8, 0),
            (2, 29, 52, 1780, 0, 29, 0),
            (3, 27, 46, 3098, 0, 27, 0),
        ],
        "circuit": "5fdfb09123669c38",
    },
    ("ring8", 4, 2, "incremental"): {
        "per_k": [
            (0, 8, 7, 257, 0, 8, 0),
            (1, 33, 48, 1530, 0, 33, 0),
            (2, 318, 544, 19707, 2, 318, 0),
            (3, 624, 1079, 48103, 5, 624, 0),
            (4, 319, 696, 23789, 2, 319, 0),
        ],
        "circuit": "5945456b7d02d8b7",
    },
    ("ring8", 4, 3, "incremental"): {
        "per_k": [
            (0, 8, 7, 249, 0, 8, 0),
            (1, 97, 166, 3967, 0, 97, 0),
            (2, 160, 256, 6415, 1, 160, 0),
            (3, 160, 328, 8769, 1, 160, 0),
            (4, 20, 68, 2532, 0, 20, 0),
        ],
        "circuit": "fc295955d3ae10e2",
    },
    ("ring8", 5, 4, "incremental"): {
        "per_k": [
            (0, 8, 7, 330, 0, 8, 0),
            (1, 196, 317, 9711, 1, 196, 0),
            (2, 179, 467, 13128, 1, 179, 0),
            (3, 212, 389, 16492, 2, 212, 0),
            (4, 273, 498, 19020, 2, 273, 0),
            (5, 541, 950, 40723, 4, 541, 0),
        ],
        "circuit": "a394c381feb288c4",
    },
}


def _exact_fingerprint(arch, swaps, seed, mode):
    device = get_architecture(arch)
    instance = generate(device, num_swaps=swaps, seed=seed,
                        ordering_mode="pruned")
    pinned = None
    if mode == "pinned":
        pinned = Mapping(dict(enumerate(instance.initial_mapping)))
    solver = ExactSolver(max_swaps=swaps + 1,
                         incremental=mode != "fresh")
    outcome = solver.solve(instance.circuit, device, initial_mapping=pinned)
    assert outcome.optimal_swaps == outcome.proven_lower_bound == swaps
    rows = [tuple([entry["k"]] + [entry[key] for key in STAT_KEYS])
            for entry in outcome.solver_stats]
    result = outcome.result
    circuit = _digest({"circuit": result.circuit.to_dict(),
                       "initial": result.initial_mapping.to_dict()})
    return {"per_k": rows, "circuit": circuit}


@pytest.mark.parametrize("key", sorted(EXACT_GOLDEN),
                         ids=lambda key: "-".join(map(str, key)))
def test_exact_search_matches_golden(key):
    assert _exact_fingerprint(*key) == EXACT_GOLDEN[key]


def _random_3sat(num_vars, num_clauses, seed):
    rng = random.Random(seed)
    return [[v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, num_vars + 1), 3)]
            for _ in range(num_clauses)]


#: (assumptions, conflict_limit) per call of the long session.
SESSION_CALLS = (
    ((), 2100),
    ((1, -2, 3, -4), None),
    ((-1, 2, -3, 4), None),
    ((5, 6, -7), None),
    ((), None),
)

#: Per call: (result, per-call counter deltas in STAT_KEYS order); then
#: the final model's hash.
SESSION_GOLDEN = {
    "calls": [
        ("unknown", (2100, 2678, 82378, 13, 2100, 1000)),
        ("unsat", (176, 211, 7228, 1, 176, 0)),
        ("unsat", (430, 532, 18425, 3, 430, 0)),
        ("unsat", (780, 947, 32037, 5, 780, 0)),
        ("sat", (1393, 1685, 56051, 8, 1393, 0)),
    ],
    "model": "f5fe2effb62279aa",
}


def test_long_session_matches_golden():
    solver = CdclSolver()
    solver.add_clauses(_random_3sat(150, 630, 54))
    calls = []
    previous = dict(solver.stats)
    for assumptions, conflict_limit in SESSION_CALLS:
        result = solver.solve(assumptions, conflict_limit=conflict_limit)
        current = dict(solver.stats)
        calls.append((result.value,
                      tuple(current[k] - previous[k] for k in STAT_KEYS)))
        previous = current
    assert result is SolverResult.SAT
    model = _digest(solver.model().true_variables())
    # The session must be long enough to reach both slow paths: VSIDS
    # rescaling needs var_inc past 1e100 (about 4,490 conflicts at decay
    # 0.95), and the first database reduction 2,000 learned clauses in
    # one call.
    assert solver.stats["conflicts"] > 4500
    assert solver._var_inc < 1e100  # rescaled at least once
    assert solver.stats["deleted"] > 0
    assert {"calls": calls, "model": model} == SESSION_GOLDEN
