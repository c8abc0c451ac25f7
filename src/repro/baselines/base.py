"""Baseline AQP methods under the unified estimator protocol.

Every baseline implements :class:`repro.api.Estimator` natively;
:class:`AQPMethod` is their common base class.
"""

from __future__ import annotations

from repro.api import Estimator


class AQPMethod(Estimator):
    """Base class for the baseline engines.

    Subclasses implement the :class:`~repro.api.Estimator` protocol
    (``fit``/``predict``/``predict_one``/``num_bytes``/``supports``).
    """

    name: str = "abstract-aqp"
