"""The package's public names under lazy loading."""

import sys

import pytest

import blowdyn

# the public API; a change to it is deliberate
PUBLIC = {
    "BlowupConfig", "GradedClass", "Mono", "RingModel", "build_ring",
    "PullbackAction", "ValidationReport", "identity_action",
    "IntPolynomial", "cyclotomic", "is_cyclotomic_product",
    "DegreeSequence", "Enclosure", "PropertyReport", "char_poly",
    "degree_properties_report", "dynamical_degrees", "entropy",
    "radius_enclosure", "spectral_radius", "directed_decimal",
    "NefAssertion", "kawamata_nu", "nef_necessary_check", "numerical_dimension",
    "pf_eigenvector", "verify_fixed_nef_class", "weak_fano_report",
    "ChainReport", "GateVerdict", "decide", "degree_chain_report",
    "InputDocument", "dumps", "load", "loads", "save",
    "BlowdynError", "ConsistencyError", "DimensionMismatch", "HypothesisViolation",
    "InvalidConfig", "LengthMismatch", "NotAmpleCandidate", "NotUnimodular",
    "NotValidated", "ParseError", "RingMismatch", "SchemaError",
    "ToleranceUnreachable", "UnknownAction", "UnknownClass", "ZeroClass",
}


def test_all_is_the_public_api_once():
    assert set(blowdyn.__all__) == PUBLIC
    assert len(blowdyn.__all__) == len(PUBLIC)


def test_every_name_resolves_to_its_defining_module():
    for name in PUBLIC:
        value = blowdyn.__getattr__(name)  # the lazy lookup, even if cached
        home = value.__module__
        assert home.startswith("blowdyn."), name
        assert getattr(sys.modules[home], name) is value, name
        assert getattr(blowdyn, name) is value, name


def test_dir_covers_all():
    assert set(blowdyn.__all__) <= set(dir(blowdyn))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        blowdyn.no_such_name
    assert not hasattr(blowdyn, "nef_vanishing_colinearity")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from blowdyn import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(blowdyn, name)
