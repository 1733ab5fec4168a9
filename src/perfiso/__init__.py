"""Exact-arithmetic toolkit for perfect self-isometries of the prime-order cyclic block."""

from . import characters, cyclotomic, isometry, pigroup
from .cyclotomic import *
from .characters import *
from .isometry import *
from .pigroup import *

__version__ = "0.1.0"

# each public name is declared once, in the __all__ of its module
__all__ = [*cyclotomic.__all__, *characters.__all__, *isometry.__all__, *pigroup.__all__]
