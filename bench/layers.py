"""Per-layer metrics from spans around each module's public functions.

The layers are the package's modules.  ``model`` is not timed (it only
builds 8-entry tables); ``fileio``, ``cli`` and ``errors`` lie outside the
library calls the workloads make.  Each span is named after the module that
defines the function, whichever module attribute the call went through.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import concord.evaluation as cevaluation
import concord.graph as cgraph
import concord.inference as cinference
import concord.partition as cpartition
import concord.priors as cpriors
import concord.tuning as ctuning

from spans import Span, Tracer, has_ancestor, percentile, self_times


def _graph_counts(graph) -> dict:
    return {"variables": graph.num_variables, "ternary_factors": graph.num_ternary_factors}


def _decode_counts(assignment) -> dict:
    pre = assignment.pre_repair or {}
    return {
        # A positive tolerance stops early, so an unconverged decode hit the cap.
        "capped": int(not assignment.converged),
        "pre_repair_violations": pre.get("violations", 0),
        "repair_flips": len(pre.get("flipped_variables", ())),
    }


def _partition_counts(partitions) -> dict:
    return {
        "partitions": len(partitions),
        "local_variables": sum(p.graph.num_variables for p in partitions),
        "test_pairs": sum(len(p.test_pairs) for p in partitions),
    }


# (module, attribute its callers look up, span name, observer of the result)
PATCHES = (
    (cgraph, "build_factor_graph", "graph.build_factor_graph", _graph_counts),
    (cpartition, "build_factor_graph", "graph.build_factor_graph", _graph_counts),
    (cgraph, "enumerate_ternary_cliques", "graph.enumerate_ternary_cliques", None),
    (cinference, "lbp_map", "inference.lbp_map", _decode_counts),
    (cpartition, "lbp_map", "inference.lbp_map", _decode_counts),
    (ctuning, "lbp_map", "inference.lbp_map", _decode_counts),
    (cinference, "jacobi_round", "inference.jacobi_round", None),
    (cinference, "greedy_repair", "inference.greedy_repair", None),
    (cpartition, "build_partitions", "partition.build_partitions", _partition_counts),
    (cpartition, "trigram_embeddings", "partition.trigram_embeddings", None),
    (cpartition, "top_k_neighbors", "partition.top_k_neighbors", None),
    (
        cpartition, "infer_partitions_parallel", "partition.infer_partitions_parallel",
        lambda merged: {"reported_violations": len(merged.violations)},
    ),
    (ctuning, "tune", "tuning.tune", lambda result: {"validation_f1": result[0].objective}),
    (ctuning, "evaluate_config", "tuning.evaluate_config", None),
    (cevaluation, "audit_labels", "evaluation.audit_labels", lambda result: {"violations": result[0]}),
    (cevaluation, "cliques_among", "evaluation.cliques_among", lambda cliques: {"closable_cliques": len(cliques)}),
    (cpriors, "extract_features", "priors.extract_features", None),
    (cpriors, "train_linear_prior", "priors.train_linear_prior", None),
    (cpriors, "calibrate_temperature", "priors.calibrate_temperature", None),
    (cpriors, "predict_prior", "priors.predict_prior", None),
)


def install(tracer: Tracer) -> Tracer:
    for module, attribute, name, observe in PATCHES:
        tracer.patch(module, attribute, name, observe)
    return tracer


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Metrics of one answer's spans; a layer that did no work reads 0."""
    own = self_times(spans)
    indices: dict[str, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        indices[span.name].append(index)

    def durations(name: str) -> list[float]:
        return [spans[i].duration for i in indices[name]]

    def total(name: str) -> float:
        return sum(durations(name))

    def self_total(name: str) -> float:
        return sum(own[i] for i in indices[name])

    def count(name: str, key: str) -> float:
        return sum(spans[i].counts.get(key, 0) for i in indices[name])

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    builds = indices["graph.build_factor_graph"]
    tune_s = total("tuning.tune")
    tune_builds_s = sum(
        spans[i].duration for i in builds if has_ancestor(spans, i, "tuning.tune")
    )
    features = durations("priors.extract_features")
    local_variables = count("partition.build_partitions", "local_variables")
    tuned = indices["tuning.tune"]
    return {
        "priors.feature_calls": len(features),
        "priors.us_per_pair": 1e6 * sum(features) / len(features) if features else 0.0,
        "priors.train_s": total("priors.train_linear_prior") + total("priors.calibrate_temperature"),
        "priors.predict_s": total("priors.predict_prior"),
        "graph.builds": len(builds),
        "graph.build_s": total("graph.build_factor_graph"),
        "graph.cliques_s": self_total("graph.enumerate_ternary_cliques"),
        "graph.variables": count("graph.build_factor_graph", "variables"),
        "graph.ternary_factors": count("graph.build_factor_graph", "ternary_factors"),
        "inference.decodes": len(indices["inference.lbp_map"]),
        "inference.lbp_s": total("inference.lbp_map"),
        "inference.rounds": len(indices["inference.jacobi_round"]),
        "inference.round_ms_p50": 1e3 * median(durations("inference.jacobi_round")),
        "inference.decode_ms_p50": 1e3 * percentile(durations("inference.lbp_map"), 0.50),
        "inference.decode_ms_p98": 1e3 * percentile(durations("inference.lbp_map"), 0.98),
        "inference.capped_decodes": count("inference.lbp_map", "capped"),
        "inference.repair_s": total("inference.greedy_repair"),
        "inference.pre_repair_violations": count("inference.lbp_map", "pre_repair_violations"),
        "inference.repair_flips": count("inference.lbp_map", "repair_flips"),
        "partition.build_s": total("partition.build_partitions"),
        "partition.embed_s": total("partition.trigram_embeddings"),
        "partition.topk_s": total("partition.top_k_neighbors"),
        "partition.topk_calls": len(indices["partition.top_k_neighbors"]),
        "partition.partitions": count("partition.build_partitions", "partitions"),
        "partition.local_variables": local_variables,
        "partition.useful_share": (
            count("partition.build_partitions", "test_pairs") / local_variables
            if local_variables else 0.0
        ),
        "partition.merge_s": self_total("partition.infer_partitions_parallel"),
        "partition.reported_violations": count("partition.infer_partitions_parallel", "reported_violations"),
        "tuning.trials": len(indices["tuning.evaluate_config"]),
        "tuning.trial_s_p50": median(durations("tuning.evaluate_config")),
        "tuning.build_share": tune_builds_s / tune_s if tune_s else 0.0,
        "tuning.validation_f1": median([spans[i].counts["validation_f1"] for i in tuned]),
        "evaluation.audit_s": total("evaluation.audit_labels"),
        "evaluation.closable_cliques": count("evaluation.cliques_among", "closable_cliques"),
        "evaluation.global_violations": count("evaluation.audit_labels", "violations"),
    }
