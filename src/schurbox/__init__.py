"""Exact-arithmetic verification of symmetric plane partition identities.

The package defines only ``__version__``; import each name from its module:

* :mod:`schurbox.poly` -- sparse Laurent polynomials over exact integers,
  substitution, exact division (general, by binomial factors, and of type-A
  and type-B alternants), signed permutations and determinants;
* :mod:`schurbox.combinat` -- plane partitions, odd-column-strict arrays,
  tableau entry tuples, the weight-preserving fold bijection, brute-force
  generating functions;
* :mod:`schurbox.schur` -- Schur polynomials (tableau sum and alternant
  ratio), box sums, Weyl denominators, MacMahon and Gordon products;
* :mod:`schurbox.identity` -- both sides of the determinant-expansion chain
  (lemma, eq4..eq6, the vanishing determinant);
* :mod:`schurbox.checks` / :mod:`schurbox.cli` -- named checks, their
  ``CheckResult`` records, the sweep runner, and the ``schurbox`` command.
"""

__version__ = "0.1.0"
