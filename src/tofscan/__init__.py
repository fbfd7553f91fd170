"""Synthetic multi-ToF-sensor 3D scanning pipeline.

Synchronized multi-device capture with an interference model, mask voting
arbitration, back-projection, registration by cube calibration fused with
colored ICP, Poisson surface reconstruction, and watertight mesh metrology — plus the
experiment harness that validates the whole chain against analytic references.
"""

__version__ = "0.1.0"

from .geometry import (BinaryMask, CameraIntrinsics, ColorImage, DepthImage, PointCloud,
                       RigidTransform, back_project, project, transform_cloud)
from .scene import Scene, ScenePrimitive, make_animal_model
from .render import RenderResult, SensorModel, apply_interference, apply_tof_noise
from .capture import CaptureSchedule, build_schedule, overlapping_pairs, simulate_capture
from .segmentation import ArbitrationMode, MaskPair, SegMetrics, fuse, metrics
from .registration import (MultiScaleParams, PoseGraph, RegistrationResult, colored_icp,
                           estimate_pose_from_fiducials, merge_clouds, register_rig)
from .reconstruction import (TriangleMesh, estimate_normals, euler_characteristic,
                             is_watertight, poisson_reconstruct)
from .metrology import MeshMeasurements, surface_area, volume
from .oracle import oracle_measurements
from .pipeline import RunConfig, run_pipeline
