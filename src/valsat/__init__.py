"""Exact saturation and syzygy computation for modules over valuation domains."""

import importlib

from .valuation import (
    Domain,
    DomainElement,
    RationalFunctionsAtZero,
    TrivialField,
    Zp,
    content,
)
from .polyvec import PivotIndex, PolyVec, family_degree, red_prim
from .echelon import EchelonBasis, echelon_insert, gauss_eliminate, saturate_free
from .vxsat import IterationRecord, SaturationResult, counters, defect, saturate_vx
from .syzygy import kernel_kx, primitive_scale, scaled_kernel, syzygy_vx
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Domain",
    "DomainElement",
    "EchelonBasis",
    "IterationRecord",
    "PivotIndex",
    "PolyVec",
    "RationalFunctionsAtZero",
    "SaturationResult",
    "TrivialField",
    "Zp",
    "content",
    "counters",
    "defect",
    "echelon_insert",
    "errors",
    "family_degree",
    "gauss_eliminate",
    "kernel_kx",
    "oracle",
    "primitive_scale",
    "red_prim",
    "saturate_free",
    "saturate_vx",
    "scaled_kernel",
    "syzygy_vx",
]


def __getattr__(name):
    # The oracle is imported on first use: only --verify and the tests need it.
    if name == "oracle":
        return importlib.import_module(".oracle", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
