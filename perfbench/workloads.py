"""The four workloads: fixed CLI invocation lists over generated inputs.

Each op is a subcommand argv plus the independent check of its answer.  The
seed feeds the random graphs, the generated mapping and the oracle `--seed`;
every other input is fixed, so the same seed gives the same list.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

import check
import gen


class Op(NamedTuple):
    name: str
    argv: list
    check: Callable


def block_coding(inp):
    """Few, large LPs: chi_f and eta of OR powers, the paper's block coding."""
    c5, c7, p3, pet = gen.cycle(5), gen.cycle(7), gen.path(3), gen.petersen()
    c5_2 = gen.power(c5, 2, "or")
    chi_p3 = check.expected("chi_f.p3")
    chi_pet = Fraction(pet[0], check.alpha(pet))
    return [
        Op("chif_c5_or2", ["chif", "--graph", inp.graph("c5_or2", c5_2)], check.chif(check.cycle_chi_f(5, 2))),
        Op("chif_p3_or3", ["chif", "--graph", inp.graph("p3_or3", gen.power(p3, 3, "or"))], check.chif(chi_p3**3)),
        Op("chif_petersen", ["chif", "--graph", inp.graph("petersen", pet)], check.chif(chi_pet)),
        Op("optimal_c5_t2", ["leakage-optimal", "--graph", inp.graph("c5", c5), "--t", "2"],
           check.leakage_optimal(c5, 2, check.cycle_chi_f(5, 2))),
        Op("optimal_c7_t2", ["leakage-optimal", "--graph", inp.graph("c7", c7), "--t", "2"],
           check.leakage_optimal(c7, 2, check.cycle_chi_f(7, 2))),
        Op("optimal_p3_t3", ["leakage-optimal", "--graph", inp.graph("p3", p3), "--t", "3"],
           check.leakage_optimal(p3, 3, chi_p3**3)),
        Op("oracle_duality_c5_t2", ["oracle", "duality", "--graph", inp.graph("c5", c5), "--t", "2"],
           check.oracle([check.duality_report(check.cycle_chi_f(5, 2))])),
        Op("approx_c5_or2", ["bounds-approx", "--graph", inp.graph("c5_or2", c5_2), "--theta", inp.graph("c5_or2", c5_2)],
           check.bounds("bounds.c5_2.c5_2")),
    ]


def adversary_bounds(inp):
    """Many small covering LPs behind trace hypergraphs of AND powers."""
    c5, c7, pet = gen.cycle(5), gen.cycle(7), gen.petersen()
    fig1, theta = gen.fig1(), gen.fig1_theta()

    def multi_approx(name, g, h, t, key):
        argv = ["bounds-multi-approx", "--graph", inp.graph(name, g), "--theta", inp.graph(f"{name}_theta", h),
                "--budget", "table:" + inp.table(f"ones{t}", t)]
        return Op(f"multi_approx_{name}_t{t}", argv, check.bounds(key))

    return [
        multi_approx("c5", c5, c5, 4, "bounds.c5.c5"),
        multi_approx("c7", c7, c7, 3, "bounds.c7.c7"),
        multi_approx("petersen", pet, pet, 2, "bounds.petersen.petersen"),
        multi_approx("fig1", fig1, theta, 3, "bounds.fig1.fig1_theta"),
        Op("approx_petersen", ["bounds-approx", "--graph", inp.graph("petersen", pet), "--theta", inp.graph("petersen", pet)],
           check.bounds("bounds.petersen.petersen")),
        Op("multi_petersen", ["bounds-multi", "--graph", inp.graph("petersen", pet), "--budget", "exp:2/1"],
           check.bounds("bounds_multi.petersen.exp2")),
    ]


def oracle_sweep(inp):
    """Fraction work in seeded schemes, merge chains and grids; no large LP."""
    c5, pet = gen.cycle(5), gen.petersen()
    fig1, theta = gen.fig1(), gen.fig1_theta()
    seed = str(inp.seed)
    dup = gen.duplicate_codebook_mapping(c5, 2, 4, inp.rng("c5_dup_t2"))
    dup_path = inp.mapping("c5_dup_t2", dup)
    # a duplicate pair is always mergeable; the seed picks which one
    y1 = inp.rng("merge_pair").randrange(len(dup["codewords"]) // 2) * 2
    y1, y2 = dup["codewords"][y1], dup["codewords"][y1 + 1]
    c5_path = inp.graph("c5", c5)
    return [
        Op("floor_c5_t2", ["oracle", "multi-guess-floor", "--graph", c5_path, "--t", "2", "--seed", seed, "--trials", "200"],
           check.oracle([check.floor_report(c5, 2)])),
        Op("closure_c5_t1", ["oracle", "merge-closure", "--graph", c5_path, "--t", "1", "--seed", seed, "--trials", "200"],
           check.oracle([check.closure_report()])),
        Op("closure_c5_t2", ["oracle", "merge-closure", "--graph", c5_path, "--t", "2", "--seed", seed, "--trials", "6"],
           check.oracle([check.closure_report()])),
        Op("packing_petersen", ["oracle", "packing", "--theta", inp.graph("petersen", pet)],
           check.oracle([check.packing_report(pet)])),
        Op("oracle_fig1", ["oracle", "--graph", inp.graph("fig1", fig1), "--theta", inp.graph("fig1_theta", theta),
                           "--seed", seed, "--trials", "200"],
           check.oracle([
               check.duality_report(Fraction(fig1[0], check.alpha(fig1))),
               check.floor_report(fig1, 1),
               check.closure_report(),
               check.packing_report(theta),
           ])),
        Op("eval_c5_dup_t2", ["leakage-eval", "--graph", c5_path, "--mapping", dup_path], check.leakage_eval(dup["rows"])),
        Op("merge_c5_dup_t2", ["merge", "--graph", c5_path, "--mapping", dup_path, y1, y2], check.merge(dup, c5, y1, y2)),
    ]


def graph_scale(inp):
    """MIS enumeration at scale, dense and edgeless inputs, large JSON."""
    c7, pet, k3 = gen.cycle(7), gen.petersen(), gen.complete(3)
    dense300 = gen.random_graph(300, 0.9, inp.rng("dense300"))
    dense400 = gen.random_graph(400, 0.92, inp.rng("dense400"))
    c7_2, pet_and2, pet_or2 = gen.power(c7, 2, "or"), gen.power(pet, 2, "and"), gen.power(pet, 2, "or")
    return [
        Op("mis_dense300", ["mis", "--graph", inp.graph("dense300", dense300)], check.mis(dense300, check.all_mis(dense300))),
        Op("info_dense400", ["info", "--graph", inp.graph("dense400", dense400)], check.info(dense400)),
        Op("alpha_edgeless400", ["alpha", "--graph", inp.graph("edgeless400", gen.edgeless(400))], check.alpha_is(400)),
        Op("alpha_edgeless800", ["alpha", "--graph", inp.graph("edgeless800", gen.edgeless(800))], check.alpha_is(800)),
        Op("product_or_c7sq_c7", ["product", "--op", "or", "--graph", inp.graph("c7_or2", c7_2), "--graph", inp.graph("c7", c7)],
           check.product(c7_2, c7, "or")),
        Op("product_and_petsq_k3", ["product", "--op", "and", "--graph", inp.graph("petersen_and2", pet_and2),
                                    "--graph", inp.graph("k3", k3)],
           check.product(pet_and2, k3, "and")),
        Op("mis_petersen_or2", ["mis", "--graph", inp.graph("petersen_or2", pet_or2)],
           check.mis(pet_or2, gen.mis_of_or_power(pet, 2))),
    ]


WORKLOADS = {
    "block_coding": block_coding,
    "adversary_bounds": adversary_bounds,
    "oracle_sweep": oracle_sweep,
    "graph_scale": graph_scale,
}

# The cold-start query behind setup_s: the smallest answer the CLI gives.
COLD_START = Op("cold_start", ["alpha", "--graph", "fixture:e1"], check.alpha_is(1))
