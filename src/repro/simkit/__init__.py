"""Discrete-event cluster substrate: engine, resources, network, disks, hosts."""

from .core import AllOf, AnyOf, Environment, Event, Process, Timeout
from .disk import Disk, FileDevice, WritePolicy
from .host import Fabric, Host
from .network import FlowNetwork, Nic
from .resources import Container, Request, Resource
from .trace import Metrics

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Disk",
    "Environment",
    "Event",
    "Fabric",
    "FileDevice",
    "FlowNetwork",
    "Host",
    "Metrics",
    "Nic",
    "Process",
    "Request",
    "Resource",
    "Timeout",
    "WritePolicy",
]
