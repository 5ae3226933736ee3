"""Analyses from §V and §VI of the paper.

* :mod:`repro.analysis.popgen` — Q4-2015-style job population
  synthesis at database scale (hundreds of thousands of jobs),
  using the *same application profiles and metric formulas* as the
  full simulation pipeline, vectorised over jobs.
* :mod:`repro.analysis.populations` — the §V-A population fractions
  (MIC usage, vectorisation, memory, idle nodes).
* :mod:`repro.analysis.casestudy` — the §V-B WRF/Lustre I/O case
  study (outlier user vs the WRF population).
* :mod:`repro.analysis.correlations` — the §V-B production-job
  correlation study (CPU_Usage vs I/O metrics).
* :mod:`repro.analysis.timeseries` — the §VI-A cross-job
  interference analysis on the TSDB.

The §VI-B guardian and the §I status board live with the stream they
read: :func:`repro.stream.suspend_sink`, :class:`repro.stream.LiveStatus`.
"""

from repro.analysis.casestudy import CaseStudyResult, wrf_case_study
from repro.analysis.energy import EnergyReport, energy_breakdown
from repro.analysis.fleet import FleetReport, fleet_report
from repro.analysis.io_advisor import IODiagnosis, diagnose_io
from repro.analysis.correlations import correlation_study, production_jobs
from repro.analysis.popgen import PopulationMix, STAMPEDE_Q4_MIX, generate_population
from repro.analysis.populations import population_fractions
from repro.analysis.timeseries import interference_report
from repro.analysis.vectorization import VectorizationStudy, vectorization_study

__all__ = [
    "EnergyReport",
    "energy_breakdown",
    "FleetReport",
    "fleet_report",
    "IODiagnosis",
    "diagnose_io",
    "VectorizationStudy",
    "vectorization_study",
    "PopulationMix",
    "STAMPEDE_Q4_MIX",
    "generate_population",
    "population_fractions",
    "CaseStudyResult",
    "wrf_case_study",
    "correlation_study",
    "production_jobs",
    "interference_report",
]
