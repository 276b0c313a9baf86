"""Waist-worn IMU fall detection and time-of-impact estimation.

Two models over one 200 Hz sensor stream: a recurrent per-sample fall
detector and a Kolmogorov-Arnold regressor counting down the milliseconds
to ground impact, plus the full data path (corpus ingestion, calibration,
orientation estimation, feature selection) and an evaluation harness.

The package itself defines only ``__version__``; import the submodules
(``from fallsense import streaming``).
"""

__version__ = "0.1.0"
