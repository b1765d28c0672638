"""Gate-level circuit substrate: netlists, `.bench` I/O, simulation,
faults, scan chains and a synthetic circuit generator.  Names load on
first use (PEP 562), so reading a ``.test`` file loads the scan and
netlist modules only."""

from .._lazy import lazy_exports

_EXPORTS = {
    "BUILTIN_CIRCUITS": ".bench",
    "load_bench": ".bench",
    "load_builtin": ".bench",
    "parse_bench": ".bench",
    "write_bench": ".bench",
    "Fault": ".faults",
    "collapse_faults": ".faults",
    "full_fault_list": ".faults",
    "COMBINATIONAL_GATES": ".netlist",
    "Circuit": ".netlist",
    "CircuitError": ".netlist",
    "CombinationalView": ".netlist",
    "Gate": ".netlist",
    "GateType": ".netlist",
    "ScanChain": ".scan",
    "TestSet": ".scan",
    "evaluate": ".simulate",
    "outputs_of": ".simulate",
    "simulate_cube": ".simulate",
    "random_circuit": ".synth",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
