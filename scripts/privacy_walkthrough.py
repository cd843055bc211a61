#!/usr/bin/env python3
"""End-to-end privacy walkthrough for the function-sharing algorithm.

Runs function sharing on a complete graph, lets a two-agent coalition observe
the execution, constructs an alternative assignment in which a chosen agent
holds a different objective, and verifies that every observation matches. Then
shows the flip side: on a cycle, a coalition that cuts the graph reconstructs
the isolated component's objective sum exactly.
"""

import sys

import numpy as np

import privopt as po
from privopt.privacy import necessity_demo

OBJECTIVES = [
    [0, 0, 1],
    [0, 0, 0, 0, 1],
    [0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0.5],
    [0, 0, 0.5, 0, 1],
]


def build(topology_family):
    problem = po.GlobalProblem(
        objectives=[po.PolynomialObjective(c) for c in OBJECTIVES],
        feasible=po.Box([-30.0], [30.0]))
    topology = po.Topology.family(topology_family, 5)
    init = np.linspace(-1.0, 1.0, 5)[:, None]
    trace = po.run_fs(problem, topology, po.StepSchedule(kind="inv_sqrt"),
                      delta_coeff=0.5, d_max=8, max_iter=1000, init=init, seed=11)
    return problem, trace


def main() -> int:
    problem, trace = build("complete")
    coalition = [3, 4]
    print(f"complete graph, coalition {coalition} "
          f"(connectivity {po.vertex_connectivity(trace.topology)})")
    view = po.extract_view(trace, coalition)

    # agent 0 claims an objective that differs by an extra quartic term
    claimed = np.zeros((1, 9))
    claimed[0, :3] = OBJECTIVES[0][:3]
    claimed[0, 4] = 1.0
    objectives = po.complete_alternative_objectives(problem, coalition, target=[0],
                                                    alternatives={0: claimed}, d_max=8)
    instance = po.construct_alternative(view, objectives, extras_seed=1)
    verdict = po.verify_indistinguishable(view, instance)
    print(f"  alternative instance verified: passed={verdict.passed}, "
          f"max residual={verdict.max_residual:.1e}, replay digest ok={verdict.digest_ok}")
    print("  the coalition cannot tell which objective agent 0 really holds")

    problem, trace = build("cycle")
    coalition = [0, 2]
    print(f"cycle graph, cut coalition {coalition}")
    view = po.extract_view(trace, coalition)
    truth = {j: spec["coeffs"] for j, spec in enumerate(trace.config["objectives"])}
    report = necessity_demo(view, truth)
    for comp in report.components:
        print(f"  isolated component {comp['members']}: objective sum recovered "
              f"with residual {comp['residual']:.1e}")
    print("  connectivity above the coalition size is necessary, not just sufficient")
    return 0


if __name__ == "__main__":
    sys.exit(main())
