"""Models, verdicts and expected results of the benchmark workloads.

Kept free of lgmirror imports so that the parent process stays light.
"""

E1 = "x0^2+x1^3+x2^6"  # elliptic curve, weights (3,2,1;6)
E2 = "x0^2+x1^4+x2^4"  # elliptic curve, weights (2,1,1;4)
K3A = "y0^2+y1^6+y2^6+y3^6"  # K3 surface, weights (3,1,1,1;6)
OCTIC = "y0^2+y1^8+y2^8+y3^8+y4^8"  # CY threefold block, weights (4,1,1,1,1;8)

# J1 x J2 on E2 x K3A plus the order-12 mixer: a group that is not a product
NONPRODUCT_GENS = "1/2,1/4,1/4,0,0,0,0;0,0,0,1/2,1/6,1/6,1/6;0,1/4,3/4,0,1/6,5/6,0"


def _theorem2(even: int, total: int, gamma: int) -> dict:
    return {
        "dim_b2_even": even,
        "dim_b0_even": even,
        "b2_total": total,
        "b0_total": total,
        "gamma_pairs_checked": gamma,
        "product_failures": 0,
        "pairing_failures": 0,
        "associativity_failures": 0,
        "frobenius_failures": 0,
    }


# workload -> verdicts of one pass, each run in its own cold CLI process:
# (label, bv verb, w1, w2, generators ("" = J1 x J2), expected report fields)
COLD = {
    "octic-cold": [
        ("theorem1", "theorem1", E1, OCTIC, "", {"lhs_total": 1824, "rhs_total": 1824}),
        ("bvms", "bvms", E1, OCTIC, "", {"lhs_total": 1824, "rhs_total": 1824}),
        ("twist_iso", "twist-iso", E1, OCTIC, "", {"source_dim": 1824, "target_dim": 1824}),
    ],
    "frobenius": [
        ("theorem2_nonproduct", "theorem2", E2, K3A, NONPRODUCT_GENS, _theorem2(42, 72, 49)),
        ("theorem2_e1k3a", "theorem2", E1, K3A, "", _theorem2(14, 136, 16)),
    ],
}

CENSUS = "k3-census"
CENSUS_CURVES = (E1, E2)
# every third of the 44 invertible K3 samples: a pass over 15 models takes
# about 10 s, so a run repeats it and takes each verdict's median
CENSUS_STRIDE = 3
