"""Design-choice ablation: segment length ``l`` of segmented re-ranking.

The paper argues that re-ranking the whole expansion list by negative
similarity promotes noisy entities and that segment-wise re-ranking avoids
this.  This bench sweeps the segment length and checks that moderate segments
beat whole-list-scale segments on the combined metric.
"""

from repro.config import RetExpanConfig
from repro.retexpan import RetExpan

SEGMENT_LENGTHS = (10, 20, 50, 200)


def _run_sweep(context):
    evaluator = context.evaluator(max_queries=context.max_queries)
    results = {}
    for segment_length in SEGMENT_LENGTHS:
        expander = RetExpan(
            RetExpanConfig(segment_length=segment_length),
            resources=context.resources,
            name=f"RetExpan(l={segment_length})",
        ).fit(context.dataset)
        results[segment_length] = evaluator.evaluate(expander)
    return results


def test_ablation_segment_length(benchmark, context):
    results = benchmark.pedantic(_run_sweep, args=(context,), rounds=1, iterations=1)
    comb = {length: report.average("comb") for length, report in results.items()}
    neg = {length: report.average("neg") for length, report in results.items()}
    print("\nsegment length -> CombAvg:", {k: round(v, 2) for k, v in comb.items()})
    print("segment length -> NegAvg :", {k: round(v, 2) for k, v in neg.items()})

    best_moderate = max(comb[10], comb[20], comb[50])
    # Whole-list re-ranking (l = expansion size) must not beat moderate segments.
    assert comb[200] <= best_moderate + 0.5
    # All configurations stay within a sane range.
    assert all(0.0 <= value <= 100.0 for value in comb.values())
