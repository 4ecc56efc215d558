"""repro.datasets — synthetic stand-ins for the paper's external data.

The only external dataset the paper uses is the (non-public) UQ wireless
trace of Sec. V.A.1; :func:`generate_uq_wireless` produces a structural
equivalent.  See the module docstring of :mod:`repro.datasets.uq_wireless`
for the substitution rationale.
"""

from .uq_wireless import WirelessDataset, generate_uq_wireless

__all__ = ["WirelessDataset", "generate_uq_wireless"]
