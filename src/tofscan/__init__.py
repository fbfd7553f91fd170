"""Synthetic multi-ToF-sensor 3D scanning pipeline.

Synchronized multi-device capture with an interference model, mask voting
arbitration, back-projection, registration by cube calibration fused with
colored ICP, Poisson surface reconstruction, and watertight mesh metrology — plus the
experiment harness that validates the whole chain against analytic references.
Each name is imported from its submodule (``from tofscan.pipeline import
run_pipeline``): ``import tofscan`` loads none of them.
"""

__version__ = "0.1.0"
