"""What a process executes of the package: `import densitas` runs no module
body, each verb runs the layers it uses, and the public names resolve to the
objects their modules define."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import densitas

# the names `densitas` exported when it imported every module at once, by
# the module it took each one from
_EXPORTED = {
    "config": ("Config", "DEFAULT_CONFIG", "load_config"),
    "density": ("FUNCTIONAL_NAMES", "check_submeasure_axioms", "check_upper_density_axioms",
                "dom_membership", "get_functional", "lower_dual", "prefix_profile",
                "upper_asymptotic", "upper_banach", "upper_buck", "weighted_upper",
                "window_profile"),
    "exceptions": ("DensitasError",),
    "exhaust": ("LSCSM_NAMES", "check_lscsm_axioms", "exhaustive_norm", "get_lscsm",
                "lscsm_eval", "tail_value"),
    "limits": ("cauchy_to_limit", "lscsm_limit", "sigma_limit", "sigma_union_oracle"),
    "metric": ("SetSequence", "cauchy_profile", "check_pseudometric", "dist",
               "evaluate_measure", "metric_equivalence_probe",
               "topological_coconvergence_probe"),
    "natset": ("APTerm", "APUnionSet", "DyadicBlockSet", "FillRule", "FiniteSet",
               "HorizonSet", "NatSet", "PeriodicSet", "boolean_op", "transform"),
    "reports": ("AxiomReport", "CheckRecord", "format_fraction", "to_payload"),
    "values": ("ExtValue", "bracket", "exact", "infinite", "observational"),
    "witness": ("WitnessParams", "banach_gap_certificate", "build_witness",
                "check_witness_invariants", "derive_params", "divergence_certificate",
                "validate_params", "witness_sequence"),
}

_LIBRARY = {"bounds", "config", "density", "exceptions", "exhaust", "limits", "metric",
            "natset", "reports", "rng", "samples", "values", "witness"}
# the modules `densitas eval` and `densitas dist` execute on a density
_EVAL = {"cli", "config", "density", "exceptions", "metric", "natset", "reports", "rng",
         "samples", "values"}

# runs one statement, then reports the package's modules: those in
# sys.modules, those whose body ran (a lazy module is of a ModuleType
# subclass until its first attribute read), and whether mpmath was loaded
_PROBE = """
import contextlib, io, json, sys, types
with contextlib.redirect_stdout(io.StringIO()):
    {stmt}
import densitas
mods = {{n[len("densitas."):]: m for n, m in sys.modules.items()
        if n.startswith("densitas.")}}
print(json.dumps({{
    "registered": sorted(mods),
    "ran": sorted(n for n, m in mods.items() if type(m) is types.ModuleType),
    "attributes": sorted(n for n, m in mods.items() if vars(densitas).get(n) is m),
    "mpmath": "mpmath" in sys.modules,
}}))
"""


def _fresh(stmt: str) -> dict:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(Path(densitas.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _PROBE.format(stmt=stmt)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _main(*argv: str) -> str:
    return f"import densitas.cli; assert densitas.cli.main({list(argv)!r}) == 0"


@pytest.mark.parametrize("stmt, ran", [
    ("import densitas", set()),
    ("import densitas.cli", _EVAL),
    (_main("eval", "d-star", "per m=3 R={0}"), _EVAL),
    (_main("dist", "bd-star", "per m=3 R={0}", "fin{1}"), _EVAL),
    (_main("norm", "phi-prefix", "per m=3 R={0}"), _EVAL | {"exhaust"}),
], ids=["import", "import-cli", "eval", "dist", "norm"])
def test_a_fresh_process_executes_only_what_it_uses(stmt, ran):
    got = _fresh(stmt)
    assert set(got["ran"]) == ran
    assert not got["mpmath"]  # the tests keep mpmath as an oracle only


def test_every_module_is_registered_on_import():
    # bench/tracer.py reads each layer from sys.modules once the workload
    # has imported densitas.cli
    got = _fresh("import densitas")
    assert set(got["registered"]) == set(got["attributes"]) == _LIBRARY
    got = _fresh("import densitas.cli")
    assert set(got["registered"]) == set(got["attributes"]) == _LIBRARY | {"cli"}


def test_public_names_resolve_to_their_modules():
    assert set(densitas.__all__) == {n for names in _EXPORTED.values() for n in names}
    assert set(densitas.__all__) <= set(dir(densitas))
    for layer, names in _EXPORTED.items():
        module = getattr(densitas, layer)
        for name in names:
            assert getattr(densitas, name) is getattr(module, name), (layer, name)
    assert densitas.LSCSM_NAMES is densitas.density.LSCSM_NAMES
    with pytest.raises(AttributeError):
        densitas.nonesuch  # noqa: B018
