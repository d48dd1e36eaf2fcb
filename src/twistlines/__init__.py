"""Exact splitting-type calculus on the projective line.

The package builds flags of subbundles of a trivial bundle over an exact
field, computes the splitting types of all their subquotients, and
certifies ampleness / degree conditions for the families of pointed lines
they parametrize on classical and isotropic Grassmannians.  It republishes
each module's ``__all__`` but ``linalg``'s and ``cli``'s.
"""

from .fields import *
from .forms import *
from .frames import *
from .sheaves import *
from .families import *
from .verify import *

__version__ = "0.1.0"
