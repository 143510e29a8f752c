"""repro — reproduction of "Fail through the Cracks: Cross-System
Interaction Failures in Modern Cloud Systems" (EuroSys '23).

The package has three layers:

* :mod:`repro.core` + :mod:`repro.dataset` — the empirical study: the
  CSI failure taxonomy, the encoded datasets (120 open-source cases,
  55 cloud incidents, the CBS comparison), and the analysis engine that
  regenerates every table and finding.
* :mod:`repro.crosstest` — the §8 cross-system testing tool for the
  Spark–Hive data plane (inputs, plans, oracles, harness, discrepancy
  catalog).
* the substrates — :mod:`repro.sparklite`, :mod:`repro.hivelite`,
  :mod:`repro.formats`, :mod:`repro.storage`, :mod:`repro.yarnlite`,
  :mod:`repro.flinklite`, :mod:`repro.kafkalite`, plus the
  :mod:`repro.connectors` layer and executable :mod:`repro.scenarios`.

Importing the package loads none of them, so ``python -m repro``
loads only what its subcommand uses. Import from the modules::

    from repro.crosstest import run_crosstest
    report = run_crosstest()
    print("\\n".join(report.summary_lines()))
"""

__version__ = "1.0.0"
