"""`classes` workload: the class formulas on the (g, n) ladder (3,3), (4,5), (5,7).

Each item draws two off-wall parameters and a degree vector with a negative
entry and runs phi_from_degrees, polytope_label x2, theta_pullback x3 (at
phi1, phi2 and the degree vector's own parameter), wall_crossing and the four
comparison classes.  Per rung, the items of a round walk a chain of
parameters (item j crosses from phi_j to phi_j+1), which gives the
telescoping check W(phi_j, phi_j+1) + W(phi_j+1, phi_j+2) = W(phi_j, phi_j+2).

A round holds 1 item at (5,7), 6 at (4,5) and 18 at (3,3), so the median
falls near the 70th percentile of the (3,3) items and the 90th percentile
near the 75th of the (4,5) items, away from the gaps between rungs.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles
from harness import Op

ROUND = (("g5n7", 5, 7, 1), ("g4n5", 4, 5, 6), ("g3n3", 3, 3, 18))
LARGEST_RUNG = "g5n7"


def class_dict(cls) -> dict:
    """The program's DivisorClass read into the oracle's dict form."""
    out = {("lam",): cls.lam, ("irr",): cls.delta_irr}
    for j, c in cls.psi.items():
        out[("psi", j)] = c
    for pair, c in cls.delta.items():
        out[("delta", *oracles.pair_key(pair))] = c
    return oracles.clean(out)


class Classes:
    largest_rung = LARGEST_RUNG

    def plain_round(self, seed: int, r: int):
        rng = random.Random(f"classes:{seed}:{r}")
        rungs = []
        for rung, g, n, count in ROUND:
            chain = [oracles.random_coords(rng, g, n) for _ in range(count + 1)]
            degrees = [oracles.random_degrees(rng, g, n, negative=True) for _ in range(count)]
            rungs.append((rung, g, n, chain, degrees))
        return rungs

    def build_round(self, lib, plain):
        return [
            (rung, g, n, chain, degrees, oracles.build_parameters(lib, g, n, chain))
            for rung, g, n, chain, degrees in plain
        ]

    def warmup(self, lib, inputs):
        for rung, g, n, chain, degrees, params in inputs:
            if rung != LARGEST_RUNG:
                self._item(lib, g, n, params[0], params[1], degrees[0])
            else:
                lib.divisor_classes.theta_pullback(params[0], degrees[0])

    @staticmethod
    def _item(lib, g, n, phi1, phi2, degrees):
        st, dc = lib.stability, lib.divisor_classes
        phi_d = st.phi_from_degrees(g, n, degrees)
        label1 = st.polytope_label(phi1)
        label2 = st.polytope_label(phi2)
        theta1 = dc.theta_pullback(phi1, degrees)
        theta2 = dc.theta_pullback(phi2, degrees)
        theta_d = dc.theta_pullback(phi_d, degrees)
        wall = dc.wall_crossing(phi1, phi2)
        pairs_class = dc.stable_pairs_class(g, n, degrees)
        hain = dc.hain_class(g, n, degrees)
        mueller = dc.mueller_class(g, n, degrees)
        t_set, diff = dc.mueller_comparison(g, n, degrees)
        return (label1, label2, theta1, theta2, theta_d, wall, pairs_class, hain, mueller, t_set, diff)

    @staticmethod
    def _order(inputs):
        """(rung, g, n, chain, degrees, params, j) per item, rungs interleaved so that the
        speed samples see every rung alike."""
        queues = [
            [(rung, g, n, chain, degrees, params, j) for j in range(len(degrees))]
            for rung, g, n, chain, degrees, params in inputs
        ]
        out = []
        while any(queues):
            for queue in queues:
                if queue:
                    out.append(queue.pop(0))
        return out

    def round_ops(self, lib, inputs):
        for rung, g, n, chain, degrees, params, j in self._order(inputs):
            yield Op(
                rung,
                lambda g=g, n=n, a=params[j], b=params[j + 1], d=degrees[j]: self._item(lib, g, n, a, b, d),
                pair_steps=oracles.pair_steps(oracles.label_of(chain[j]), oracles.label_of(chain[j + 1])),
            )

    def check_round(self, lib, inputs, segments):
        """(number of ops that raised, what is wrong with the others)."""
        failed = 0
        problems = []
        walls = {}
        for seg, (rung, g, n, chain, degrees, _, j) in zip(segments, self._order(inputs)):
            if seg.error is not None:
                failed += 1
                continue
            for problem in self._check_item(g, n, chain[j], chain[j + 1], degrees[j], seg.output):
                problems.append(f"{rung} item {j}: {problem}")
            walls[(rung, j)] = class_dict(seg.output[5])
        for rung, g, n, chain, degrees, _ in inputs:
            for j in range(len(degrees) - 1):
                if (rung, j) in walls and (rung, j + 1) in walls:
                    lhs = oracles.add(walls[(rung, j)], walls[(rung, j + 1)])
                    rhs = oracles.wall_crossing(
                        g, n, oracles.label_of(chain[j]), oracles.label_of(chain[j + 2])
                    )
                    if lhs != rhs:
                        problems.append(f"{rung}: W(phi{j},phi{j+1}) + W(phi{j+1},phi{j+2}) != W(phi{j},phi{j+2})")
        return failed, problems

    @staticmethod
    def _check_item(g, n, coords1, coords2, degrees, output):
        label1, label2, theta1, theta2, theta_d, wall, pairs_class, hain, mueller, t_set, diff = output
        problems = []
        own1, own2 = oracles.label_of(coords1), oracles.label_of(coords2)
        if {oracles.pair_key(p): d for p, d in label1.label.items()} != own1:
            problems.append("label of phi1 is not the nearest integers of its coordinates")
        if {oracles.pair_key(p): d for p, d in label2.label.items()} != own2:
            problems.append("label of phi2 is not the nearest integers of its coordinates")
        own_wall = oracles.wall_crossing(g, n, own1, own2)
        w = class_dict(wall)
        if w != own_wall:
            problems.append("wall_crossing differs from the sum of (d - i) over unit steps")
        t1, t2, td = class_dict(theta1), class_dict(theta2), class_dict(theta_d)
        if oracles.add(t2, t1, Fraction(-1)) != w:
            problems.append("theta(phi2) - theta(phi1) != wall_crossing(phi1, phi2)")
        if td != oracles.pullback_at_degrees(n, degrees):
            problems.append("pullback at phi_d has boundary terms or wrong psi/lambda")
        if t1 != oracles.pullback(g, n, coords1, degrees):
            problems.append("theta(phi1) differs from theta(phi_d) + W(phi_d, phi1)")
        sp = class_dict(pairs_class)
        if sp != oracles.stable_pairs(g, n, degrees):
            problems.append("stable-pairs class differs from the flat-label pullback")
        if oracles.add(class_dict(hain), sp, Fraction(-1)) != {("irr",): Fraction(1, 8)}:
            problems.append("hain - stable_pairs != delta_irr/8")
        if oracles.add(class_dict(mueller), class_dict(diff)) != sp:
            problems.append("mueller + diff != stable_pairs")
        if sorted(oracles.pair_key(p) for p in t_set) != oracles.mueller_t(g, n, degrees):
            problems.append("discrepancy set T differs from its definition")
        return problems

    def counts(self, plain) -> dict:
        steps = pairs = 0
        for rung, g, n, chain, degrees in plain:
            for j in range(len(degrees)):
                l1, l2 = oracles.label_of(chain[j]), oracles.label_of(chain[j + 1])
                steps += sum(abs(l2[p] - l1[p]) for p in l1)
                pairs += len(l1)
        return {"divisor_classes.wall_crossing.unit_steps": steps, "stability.pairs": pairs}

    def close(self):
        pass
