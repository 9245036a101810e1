"""Fixed parameters of the benchmark's three workloads.

Everything a reader needs to interpret a number lives here: the
workload shapes, the open-loop service schedule and its latency limit,
which layers each workload must exercise, and which end-to-end metric
each per-layer metric is expected to move.
"""

from __future__ import annotations

MiB = 1024 * 1024

WORKLOADS = ("figures", "checkpoint-aged", "service-mix")

# -- figures ---------------------------------------------------------------
#: the paper's figure scale: 12 x 8 MiB panels per client
FIGURES_PANELS = 12
FIGURES_PANEL_BYTES = 8 * MiB
#: the paper's average NATIVE-16 / ION-GPFS ratio (Section 7); the model
#: is checked only against the paper's published ratios, never against
#: hardware
PAPER_HEADLINE_RATIO = 10.3
#: cells re-run on the scalar backend when a seed has no committed digest
SCALAR_SAMPLE_CELLS = 2

# -- checkpoint-aged ---------------------------------------------------------
LIFETIME_LABELS = ("CNL-EXT4", "CNL-UFS", "CNL-NATIVE-16", "ION-GPFS")
LIFETIME_KINDS = ("MLC", "TLC")
LIFETIME_AGES = (0.0, 0.9)
LIFETIME_POLICY = "dynamic"
#: 4 x 8 MiB x 3 iterations = 96 MiB per client, buffer A overwritten
LIFETIME_PANELS = 4
LIFETIME_PANEL_BYTES = 8 * MiB
LIFETIME_ITERATIONS = 3
#: the GC segment: nearly-full SLC device, 12% overprovisioning, 48 MiB
#: of seeded random 256 KiB overwrites
GC_OVERPROVISION = 0.12
GC_FILL = 0.95
GC_BYTES = 48 * MiB
GC_CHUNK = 256 * 1024
GC_POSIX_WINDOW = 4

# -- service-mix -------------------------------------------------------------
SERVICE_PANELS = 2
SERVICE_PANEL_BYTES = 2 * MiB
#: open loop: jobs offered per second of schedule, as Poisson arrivals.
#: At 40 jobs/s the server is about 16% busy.  At 78 jobs/s (35% busy)
#: latency was load-sensitive: a CPU hog beside it nearly doubled p50 and
#: a host 10% slower tripled it, as hits queued behind cold jobs; at 40
#: the same hog moved p50 by 2-5%.
#: The arrival instants and the hit/cold/burst sequence of each part are
#: one fixed Poisson sample; the workload seed picks the cells and
#: simulation seeds the jobs carry.  A schedule drawn afresh per seed
#: moved the latency tail by about 10% from seed to seed through how the
#: cold jobs happened to cluster, which is sampling noise, not a
#: property of the service.
OFFERED_JOBS_PER_S = 40
#: shares of the offered jobs: hits on warm cells, cold cells with fresh
#: simulation seeds, and jobs in bursts of BURST_SIZE identical cold
#: jobs due at the same instant, which the coalescer merges
MIX = (("hit", 0.70), ("cold", 0.20), ("burst", 0.10))
BURST_SIZE = 4
#: distinct cells pre-warmed during set-up; hits draw from these
WARM_CELLS = 16
#: at most ``nproc`` (2) client connections
CONNECTIONS = 2
#: p99 latency limit; a failed, refused or timed-out job counts as
#: JOB_TIMEOUT_S, which is over the limit.  Latency is printed, p99
#: against the limit, but not gated (see README: it amplified the host's
#: speed drift past the 25% regression bound)
P99_LIMIT_MS = 250.0
JOB_TIMEOUT_S = 5.0
#: server settings: a queue deep enough that the fixed rate is never
#: refused, and at most ``nproc`` (2) jobs executing at once.  With the
#: ``serve`` default of 4 executor threads on 2 vCPUs, cache hits waited
#: on GIL hand-offs to cold jobs and p50 sat on a steep slope of the
#: latency distribution
SERVER_QUEUE_LIMIT = 256
SERVER_MAX_CONCURRENCY = 2

# -- repetitions -------------------------------------------------------------
#: every repetition runs in a fresh process; a run repeats the timed work
#: at least this often
MIN_REPS = 2
#: the service schedule of one run is split over this many fresh servers
SERVICE_REPS = 3
#: set-up times a run takes its median over: its repetitions' own, topped
#: up by processes that stop after set-up
SETUP_SAMPLES = 5

# -- per-layer map -----------------------------------------------------------
#: per-layer metric -> (workload where the layer does most of its work,
#: end-to-end metrics it should move).  A layer listed with a workload
#: must record calls there, or the traced run fails.
LAYER_MAP = {
    "batch.plan_s": ("figures", "cpu_s, sim_txns_per_cpu_s on figures"),
    "batch.stack_s": ("figures", "cpu_s, sim_txns_per_cpu_s on figures"),
    "batch.recurrence_main_s": ("figures", "cpu_s, sim_txns_per_cpu_s, peak_rss_mb on figures"),
    "batch.recurrence_peak_s": ("figures", "cpu_s, sim_txns_per_cpu_s, peak_rss_mb on figures"),
    "batch.dispatch_s": ("figures", "cpu_s, sim_txns_per_cpu_s on figures"),
    "batch.metrics_s": ("figures", "cpu_s, sim_txns_per_cpu_s on figures"),
    "batch.pattern_peak_s": ("figures", "cpu_s, sim_txns_per_cpu_s on figures"),
    "batch.segments_s": ("figures", "cpu_s, sim_txns_per_cpu_s on figures"),
    "ssd.ftl_translate_s": ("checkpoint-aged", "cpu_s on checkpoint-aged"),
    "ssd.preload_s": ("checkpoint-aged", "cpu_s on checkpoint-aged"),
    "ssd.scheduler_s": ("checkpoint-aged", "cpu_s on checkpoint-aged"),
    "ssd.dispatch_s": ("checkpoint-aged", "cpu_s on checkpoint-aged"),
    "ssd.metrics_s": ("checkpoint-aged", "cpu_s on checkpoint-aged"),
    "ssd.pattern_peak_s": ("checkpoint-aged", "cpu_s on checkpoint-aged"),
    "fs.translate_s": ("checkpoint-aged", "cpu_s on checkpoint-aged, setup_s on figures"),
    "trace.gen_s": ("checkpoint-aged", "cpu_s on checkpoint-aged, setup_s on figures"),
    "lifetime.age_s": ("checkpoint-aged", "cpu_s on checkpoint-aged"),
    "lifetime.wear_report_s": ("checkpoint-aged", "cpu_s on checkpoint-aged"),
    "engine.run_cells_s": ("figures", "cpu_s on figures, cpu_s and latency on service-mix"),
    "cache.get_s": ("figures", "cpu_s on figures, cpu_s and latency on service-mix"),
    "cache.put_s": ("figures", "cpu_s on figures, cpu_s and latency on service-mix"),
    "exhibit.render_s": ("figures", "cpu_s on figures"),
    "service.queue_wait_ms_p50": ("service-mix", "latency, jobs_per_s on service-mix"),
    "service.queue_wait_ms_p99": ("service-mix", "latency, jobs_per_s on service-mix"),
    "service.exec_ms_p50": ("service-mix", "latency, jobs_per_s on service-mix"),
    "service.exec_ms_p99": ("service-mix", "latency, jobs_per_s on service-mix"),
}

#: share of the traced timed region that named layers' self time must cover
MIN_SELF_TIME_COVERAGE = 0.90
