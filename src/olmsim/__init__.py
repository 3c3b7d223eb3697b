"""olmsim: Cournot-based simulator and panel-econometrics toolkit for AI
shocks on online labor markets.

The package has five parts: the market model (``market``), the synthetic
panel generator (``synth``), the panel regression engine (``regression``),
propensity-score matching (``matching``), and the batch pipeline with its
reporting layer (``pipeline``, ``report``). Import each name from the
module that defines it.
"""

__version__ = "0.1.0"
