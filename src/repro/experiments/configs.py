"""Paper-specified experimental constants (§5.1 Implementation Details)."""

# Louvain resolution per dataset: "default value in the Cora and
# Citeseer and 20 in the Computer and Photo datasets".
PAPER_RESOLUTION = {
    "cora": 1.0,
    "citeseer": 1.0,
    "computer": 20.0,
    "photo": 20.0,
    "coauthor-cs": 1.0,
}

TABLE4_DATASETS = ["cora", "citeseer", "computer", "photo"]
TABLE4_PARTIES = [3, 5, 7, 9]

TABLE5_DATASET = "coauthor-cs"
TABLE5_PARTIES = [20, 50]

TABLE6_DATASETS = ["cora", "citeseer"]

TABLE7_DATASETS = ["computer", "photo"]
TABLE7_HIDDEN_LAYERS = [2, 4, 6, 8, 10]

FIG6_ALPHAS = [5e-5, 5e-4, 5e-3]
# β grid shifted to bracket this substrate's calibrated optimum (0.01);
# the paper's grid bracketed its own optimum (10) the same way.
FIG6_BETAS = [0.001, 0.01, 0.1, 1.0, 10.0]

FIG7_RESOLUTIONS = [0.5, 1.0, 5.0, 20.0, 50.0]
FIG7_DATASETS = ["cora", "citeseer", "computer", "photo"]

ALPHA_DEFAULT = 0.0005  # the paper's α
BETA_DEFAULT = 0.01  # calibrated equivalent of the paper's β=10 (see fig6)

# Chaos drill (experiments/chaos.py + tests/chaos/): the fault-injection
# run. 5 parties so every fault kind has room to hit a different client;
# default plan exercises all four kinds at rates low enough that a
# quorum always survives.
CHAOS_DATASET = "cora"
CHAOS_PARTIES = 5
# Straggler delay deliberately exceeds the trainer's client timeout so
# the default drill also exercises the timeout→retry recovery path.
CHAOS_FAULTS_DEFAULT = (
    "drop=0.1,straggler=0.15:delay=0.1,corrupt=0.1:mode=nan,crash=0.05"
)


# Async-engine load test (experiments/loadtest.py): N tiny SBM parties
# with churn, timed on the virtual clock.  Client count scales by mode;
# "full" is the 1000-client acceptance run behind BENCH_async.json.
LOADTEST_CLIENTS = {"smoke": 60, "quick": 250, "full": 1000}
LOADTEST_ROUNDS = {"smoke": 3, "quick": 4, "full": 5}
LOADTEST_NODES_PER_CLIENT = 16
LOADTEST_FEATURES = 12
LOADTEST_CLASSES = 2
LOADTEST_HIDDEN = 8
# 20% stragglers whose 2 s delay dwarfs the ~0.05-0.075 s report latency,
# an 8% medium tier (0.15 s — a few rounds late, so the staleness-weighted
# path actually fires), plus drop/crash churn.  Quorum sits below the
# ~70% fast-arrival rate with margin: at 1000 clients the arrival mix
# concentrates, and a quorum above it would wait on stragglers anyway.
LOADTEST_FAULTS = (
    "straggler=0.2:delay=2.0,straggler=0.1:delay=0.15,drop=0.05,crash=0.03"
)
LOADTEST_QUORUM = 0.6


def paper_resolution(dataset: str) -> float:
    return PAPER_RESOLUTION.get(dataset, 1.0)
