"""Cluster runtime: PE actors, message transport, run orchestration."""
from __future__ import annotations

from .transport import Envelope
from .cluster import ClusterConfig, Cluster, mono_mode

__all__ = ["Envelope", "ClusterConfig", "Cluster", "mono_mode"]
