"""Cluster construction and multideployment/multisnapshotting orchestration."""

from .cluster import Cloud, build_cloud
from .deployment import DeploymentResult, deploy, seed_image
from .middleware import CloudMiddleware
from .snapshotting import SnapshotCampaignResult, snapshot_all

__all__ = [
    "Cloud",
    "CloudMiddleware",
    "DeploymentResult",
    "SnapshotCampaignResult",
    "build_cloud",
    "deploy",
    "seed_image",
    "snapshot_all",
]
