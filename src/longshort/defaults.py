"""Defaults shared by the library and the command-line parser.

This module imports nothing, so that the CLI can build its parser (and
answer ``--help``, ``--version`` and usage errors) without loading numpy or
the library modules. Each default is defined here once and stays importable
under its old name: ``returns.DEFAULT_PRICE_COLUMN`` and
``montecarlo.DEFAULT_N_PATHS``.
"""

DEFAULT_PRICE_COLUMN = "adj_close"  # the price column read from a CSV file
DEFAULT_N_PATHS = 50_000  # Monte-Carlo paths per estimate
