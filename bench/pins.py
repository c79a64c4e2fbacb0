"""Model counters pinned at the commit that introduced the benchmark.

A speed-up must leave accept bits, witnesses, machine budgets and
``max_branch_steps`` unchanged, so the benchmark fails a run that moves any
of them.

``CW_BUDGET`` maps (k0, tail bound) to the budget of a ``reduce_cw`` machine;
it depends on nothing else. ``PIPELINE_BUDGET`` maps (k0, n) of a wd-pipeline
slot to the budget of its combined machine at d = 1. ``CW_SCAN`` and
``WD_PIPELINE`` hold, per slot label, the instance drawn from ``PIN_SEED``
with that slot's shape: [witness or None, budget, max_branch_steps,
branches_explored].
"""

PIN_SEED = 20171706

CW_BUDGET = {
    (1, 1): 21,
    (1, 2): 21,
    (2, 1): 94,
    (2, 2): 114,
    (3, 1): 351,
    (3, 2): 527,
    (4, 1): 1172,
    (4, 2): 2132,
}

PIPELINE_BUDGET = {
    (0, 8): 34,
    (1, 4): 584,
    (2, 3): 26390,
}

CW_SCAN = {
    "k1-b1": [None, 21, 14, 40],
    "k2-b1": [None, 94, 58, 435],
    "k2-b2": [None, 114, 62, 435],
    "k3-b2": [None, 527, 282, 1140],
    "k4-b2": [None, 2132, 1210, 1001],
}

WD_PIPELINE = {
    "k1-sat": [["lam001", "lam002", "x001"], 584, 542, 6],
    "k0": [None, 34, 23, 19],
    "k1-unsat": [["lam001", "lam002", "x001"], 584, 542, 6],
    "k2-sat": [["lam001", "lam002", "pad001", "pad002", "x001", "x003"], 26390, 26269, 224],
    "k2-unsat": [["lam001", "lam002", "pad001", "pad002", "x001", "x003"], 26390, 26269, 224],
}
