"""Robustness certification — the paper's primary contribution.

* :mod:`repro.certify.exact` — exact global robustness by solving the
  full twin-network MILP (Eq. 1); the ``t_M`` baseline of Table I.
* :mod:`repro.certify.reluplex` — an exact case-splitting (ReLU
  branch-and-bound) solver standing in for Reluplex/Marabou; the ``t_R``
  baseline of Table I.
* :mod:`repro.certify.global_cert` — **Algorithm 1**: the efficient
  over-approximation combining ITNE, network decomposition and LP
  relaxation with selective refinement.
* :mod:`repro.certify.local` — local robustness certification (exact /
  ND / LPR), reproducing the local half of Fig. 4.
* :mod:`repro.certify.underapprox` — dataset-wise PGD under-approximation
  ``ε̲`` used to sandwich the true global robustness for large networks.
* :mod:`repro.certify.presolve` — the bounds-only presolve tier:
  ε-targeted queries answered (proved or refuted) without any solve;
  the batched ``presolve_many`` variants decide whole query arrays in
  one vectorized pass with bit-identical per-query verdicts.
* :mod:`repro.certify.splitting` — the input-splitting
  branch-and-bound tier: ε-targeted queries decided by recursively
  bisecting the input domain, with binary-sparse MILPs only at the
  leaves that cheap bounds cannot decide.
* :mod:`repro.certify.minmax` — the min/max step every certifier above
  shares: objectives for ``Model.solve_many`` and the three ways of
  turning their results into ranges (sound, limit-tolerant, strict).
"""

from repro.certify.decomposition import SubNetwork, decompose
from repro.certify.exact import certify_exact_global
from repro.certify.global_cert import CertifierConfig, GlobalRobustnessCertifier
from repro.certify.local import certify_local_exact, certify_local_lpr, certify_local_nd
from repro.certify.presolve import (
    presolve_global,
    presolve_global_many,
    presolve_local,
    presolve_local_many,
    presolve_many,
)
from repro.certify.refinement import select_refinement
from repro.certify.reluplex import ReluplexStyleSolver
from repro.certify.results import GlobalCertificate, LocalCertificate
from repro.certify.splitting import (
    SplitConfig,
    certify_global_split,
    certify_local_split,
)
from repro.certify.underapprox import pgd_underapproximation

__all__ = [
    "certify_exact_global",
    "GlobalRobustnessCertifier",
    "CertifierConfig",
    "ReluplexStyleSolver",
    "certify_local_exact",
    "certify_local_nd",
    "certify_local_lpr",
    "presolve_local",
    "presolve_global",
    "presolve_local_many",
    "presolve_global_many",
    "presolve_many",
    "SplitConfig",
    "certify_local_split",
    "certify_global_split",
    "pgd_underapproximation",
    "GlobalCertificate",
    "LocalCertificate",
    "SubNetwork",
    "decompose",
    "select_refinement",
]
