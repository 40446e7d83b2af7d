"""Exact upper densities, submeasure norms, and completeness certificates
on structured subsets of the naturals.

The package computes the pseudometric d_nu(A, B) = min{1, nu(A symdiff B)}
for upper densities and exhaustive submeasure norms on finitely presented
sets, builds limits of Cauchy sequences where the underlying measure admits
them, and constructs an explicit certified family showing that the upper
Banach density pseudometric is not complete. Every certificate is exact
rational data; transcendental comparisons go through outward-rounded
interval arithmetic.

What loads when. `import densitas` executes no module of the package. It
puts every module but `cli` in `sys.modules`, and on the package as an
attribute, as a lazy module (`importlib.util.LazyLoader`) whose body runs on
its first attribute read. `cli` loads when it is imported, so
`python -m densitas.cli` finds no copy of it in `sys.modules`. The public
names in `__all__` resolve through the package's `__getattr__` to the module
that defines them: reading `densitas.dist` executes `metric` and what
`metric` imports, nothing more. `cli` and `metric` hold `exhaust`, `limits`
and `witness` as module references, whose bodies run on the first call
into them:

- `densitas eval` and `densitas dist` on a density or measure, and the
  axiom batteries but `lscsm`, execute cli, config, density, exceptions,
  metric, natset, reports, rng, samples and values;
- `densitas norm`, an lscsm or `norm:` measure and the `lscsm` battery
  add exhaust;
- `densitas limit` adds exhaust and limits;
- `densitas witness` adds witness and bounds.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_MODULES = ("bounds", "config", "density", "exceptions", "exhaust", "limits",
            "metric", "natset", "reports", "rng", "samples", "values", "witness")

# public name -> the module that defines it
_PUBLIC = {
    **dict.fromkeys(("Config", "DEFAULT_CONFIG", "load_config"), "config"),
    **dict.fromkeys(("FUNCTIONAL_NAMES", "LSCSM_NAMES", "check_submeasure_axioms",
                     "check_upper_density_axioms", "dom_membership", "get_functional",
                     "lower_dual", "prefix_profile", "upper_asymptotic", "upper_banach",
                     "upper_buck", "weighted_upper", "window_profile"), "density"),
    "DensitasError": "exceptions",
    **dict.fromkeys(("check_lscsm_axioms", "exhaustive_norm", "get_lscsm", "lscsm_eval",
                     "tail_value"), "exhaust"),
    **dict.fromkeys(("cauchy_to_limit", "lscsm_limit", "sigma_limit",
                     "sigma_union_oracle"), "limits"),
    **dict.fromkeys(("SetSequence", "cauchy_profile", "check_pseudometric", "dist",
                     "evaluate_measure", "metric_equivalence_probe",
                     "topological_coconvergence_probe"), "metric"),
    **dict.fromkeys(("APTerm", "APUnionSet", "DyadicBlockSet", "FillRule", "FiniteSet",
                     "HorizonSet", "NatSet", "PeriodicSet", "boolean_op", "transform"),
                    "natset"),
    **dict.fromkeys(("AxiomReport", "CheckRecord", "format_fraction", "to_payload"),
                    "reports"),
    **dict.fromkeys(("ExtValue", "bracket", "exact", "infinite", "observational"),
                    "values"),
    **dict.fromkeys(("WitnessParams", "banach_gap_certificate", "build_witness",
                     "check_witness_invariants", "derive_params", "divergence_certificate",
                     "validate_params", "witness_sequence"), "witness"),
}

__all__ = list(_PUBLIC)


def _register(name: str) -> None:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _MODULES:
    _register(_name)
del _name


def __getattr__(name: str):
    layer = _PUBLIC.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    # the public names and the submodules, not this module's own imports;
    # `cli` is an attribute only once it has been imported
    return sorted({*__all__, *_MODULES, *({"cli"} & globals().keys())})
