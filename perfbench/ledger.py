"""What each workload exercises and which layer each metric belongs to.

``BENCHMARK.json`` carries the names, units and bounds of the metrics;
this module carries the rest of the ledger: for every workload, what one
operation is and which layers it stresses or bypasses, and for every
per-layer metric, which end-to-end metric it should move and on which
workload it is busy.  Every result record embeds it, so a result file
explains itself without this source tree.
"""

WORKLOADS = {
    "filter-serve": {
        "operation": "one PacketRuntime.serve() call of 1024 busy-LAN "
                     "frames through the four paper filters on 2 "
                     "thread shards",
        "stresses": ["runtime.serve", "runtime.backends", "runtime.shard",
                     "alpha.batch"],
        "bypasses": ["pcc.validate", "lf.typecheck", "vcgen",
                     "alpha.engine", "runtime.versions"],
    },
    "kv-serve": {
        "operation": "256 Zipf + adversarial frames served through "
                     "each of four 1-shard KV runtimes in turn (four "
                     "PacketRuntime.serve() calls)",
        "stresses": ["runtime.serve", "runtime.shard", "alpha.engine",
                     "contract filter", "persistent state"],
        "bypasses": ["alpha.batch", "runtime.backends fan-out",
                     "pcc.validate", "lf.typecheck", "runtime.versions"],
    },
    "control-churn": {
        "operation": "one control operation: cold attach, warm attach, "
                     "hostile attach or canary upgrade (admit latency "
                     "is the cold attach)",
        "stresses": ["pcc.container", "alpha.encoding", "vcgen",
                     "lf.encode", "lf.typecheck", "pcc.validate",
                     "pcc.loader", "pcc.incremental", "analysis.wcet",
                     "alpha.batch.compile", "runtime.versions"],
        "bypasses": ["alpha.batch.run", "alpha.engine", "runtime.backends"],
    },
}

#: What each end-to-end figure means on each workload: the bounded ones
#: of ``BENCHMARK.json`` and the recorded ``throughput_per_s``,
#: ``op_p50_ms`` and ``op_tail_ms``.
END_TO_END = {
    "throughput_per_s": {
        "filter-serve": "kept frames per wall second of serve(), each "
                        "through all four filters; median over 1 s "
                        "windows",
        "kv-serve": "kept frames per wall second of serve(), each "
                    "through all four KV programs; median over 1 s "
                    "windows",
        "control-churn": "control operations per wall second; median "
                         "over rounds",
    },
    "op_min_ms": {
        "filter-serve": "wall of the fastest serve() call of the run",
        "kv-serve": "wall of the fastest chunk through all four "
                    "runtimes of the run",
        "control-churn": "geometric mean over the eight valid binaries "
                         "of each one's fastest cold attach of the run",
    },
    "op_p50_ms": {
        "filter-serve": "median wall of one serve() call",
        "kv-serve": "median wall of one chunk through all four "
                    "runtimes",
        "control-churn": "geometric mean over the eight valid binaries "
                         "of each one's median cold attach",
    },
    "op_tail_ms": {
        "filter-serve": "tail wall of one serve() call: each 1 s "
                        "window's highest percentile with ten samples "
                        "beyond it, median over windows",
        "kv-serve": "tail wall of one chunk through all four runtimes: "
                    "each 1 s window's highest percentile with ten "
                    "samples beyond it, median over windows",
        "control-churn": "highest percentile with ten samples beyond it "
                         "of all cold attaches of valid binaries",
    },
    "modeled_cycles_per_pkt": {
        "filter-serve": "modeled Alpha cycles per kept frame, summed "
                        "over the filters, first pass of the frame pool",
        "kv-serve": "modeled Alpha cycles per kept frame, summed over "
                    "the KV programs, first pass of the frame pool",
        "control-churn": "modeled cycles per frame of the live version "
                         "during canary dispatch",
    },
    "proof_bytes": {
        "filter-serve": "proof-section bytes of the four filters",
        "kv-serve": "proof-section bytes of the four KV programs",
        "control-churn": "proof-section bytes of all eight valid binaries",
    },
    "setup_s": {
        "any": "imports + certification + runtime build + initial "
               "attach, median of fresh-process set-ups; input "
               "generation excluded",
    },
    "peak_rss_mb": {"any": "peak resident set of the benchmark process"},
}

#: Per-layer metric -> (end-to-end metrics it should move, workloads it
#: is busy on).  On every other workload the prediction is no change.
#: ``throughput_per_s``, ``op_p50_ms``, ``op_tail_ms`` and the
#: control-churn ``reject_p50_ms`` and ``upgrade_p50_ms`` are figures of
#: the full record; ``failed`` is
#: the result's failed-operation count.
LAYER_MAP = {
    "pcc.container.parse_ms": (
        ["op_min_ms", "op_p50_ms", "reject_p50_ms"], ["control-churn"]),
    "alpha.encoding.decode_ms": (
        ["op_min_ms", "op_p50_ms", "reject_p50_ms"], ["control-churn"]),
    "lf.encode.invariants_ms": (["op_min_ms", "op_p50_ms"],
                                ["control-churn"]),
    "vcgen.predicate_ms": (["op_min_ms", "op_p50_ms"], ["control-churn"]),
    "pcc.container.unpack_proof_ms": (
        ["op_min_ms", "op_p50_ms", "reject_p50_ms"], ["control-churn"]),
    "lf.encode.goal_ms": (
        ["op_min_ms", "op_p50_ms", "reject_p50_ms"], ["control-churn"]),
    "lf.typecheck.check_ms": (["op_min_ms", "op_p50_ms", "throughput_per_s",
                               "upgrade_p50_ms"], ["control-churn"]),
    "pcc.validate.self_ms": (["op_min_ms", "op_p50_ms", "throughput_per_s",
                              "upgrade_p50_ms"], ["control-churn"]),
    "pcc.validate.rejects.container": (["reject_p50_ms"],
                                       ["control-churn"]),
    "pcc.validate.rejects.code": (["reject_p50_ms"], ["control-churn"]),
    "pcc.validate.rejects.invariants": (["reject_p50_ms"],
                                        ["control-churn"]),
    "pcc.validate.rejects.predicate": (["reject_p50_ms"],
                                       ["control-churn"]),
    "pcc.validate.rejects.proof": (["reject_p50_ms"], ["control-churn"]),
    "pcc.validate.rejects.other": (["reject_p50_ms"], ["control-churn"]),
    "pcc.loader.hit_ratio": (["throughput_per_s"], ["control-churn"]),
    "pcc.loader.hit_us": (["throughput_per_s"], ["control-churn"]),
    "pcc.loader.load_patch_ms": (["upgrade_p50_ms"], ["control-churn"]),
    "pcc.incremental.patch_bytes": (["upgrade_p50_ms"], ["control-churn"]),
    "analysis.wcet.estimate_ms": (["op_min_ms", "op_p50_ms", "setup_s"],
                                  ["control-churn"]),
    "alpha.batch.compile_ms": (["op_min_ms", "op_p50_ms", "setup_s"],
                               ["control-churn"]),
    "alpha.batch.capable_ratio": (["op_min_ms", "op_p50_ms", "setup_s"],
                                  ["control-churn"]),
    "runtime.versions.upgrade_ms": (["upgrade_p50_ms"], ["control-churn"]),
    "runtime.versions.promote_pkts": (["upgrade_p50_ms"],
                                      ["control-churn"]),
    "runtime.serve_ms": (["op_min_ms", "op_p50_ms", "throughput_per_s"],
                         ["filter-serve", "kv-serve"]),
    "runtime.backends.fanout_ms": (
        ["op_min_ms", "op_p50_ms", "throughput_per_s"], ["filter-serve"]),
    "runtime.shard.dispatch_ms": (["throughput_per_s", "op_tail_ms"],
                                  ["filter-serve", "kv-serve"]),
    "runtime.shard.self_ms": (["throughput_per_s", "op_tail_ms"],
                              ["filter-serve", "kv-serve"]),
    "runtime.shard.imbalance": (["throughput_per_s", "op_tail_ms"],
                                ["filter-serve"]),
    "alpha.batch.run_ms": (["throughput_per_s"], ["filter-serve"]),
    "alpha.batch.frames": (["throughput_per_s"], ["filter-serve"]),
    "alpha.engine.run_batch_ms": (["throughput_per_s"], ["kv-serve"]),
    "alpha.engine.frames": (["throughput_per_s"], ["kv-serve"]),
    "runtime.fast_path_ratio": (["throughput_per_s"],
                                ["filter-serve", "kv-serve"]),
    "runtime.contract_drop_ratio": (["failed"], ["kv-serve"]),
    "runtime.faults": (["failed"], ["kv-serve"]),
    "runtime.quarantines": (["failed"], ["kv-serve"]),
    "prover.certify_ms": (["setup_s"], ["all (set-up)"]),
    "filters.trace.gen_s": ([], ["all (input generation, untimed)"]),
    "bench.trace_overhead": ([], ["all (traced run)"]),
}
