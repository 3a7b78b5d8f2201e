"""Brauer-Siegel ratios R(q) = prod_{chi != chi0} L(1, chi) for prime
cyclotomic fields: bulk FFT computation, an independent certified
prime-sum verifier, the associated explicit bounds, and figure export.

Each name lives in its defining submodule (bsratio.ratio.log_ratio_fft,
not bsratio.log_ratio_fft); cli and figures are imported on demand.
"""

from . import bounds, fft, ntheory, pipeline, primesum, ratio, specfun

__version__ = "0.1.0"
