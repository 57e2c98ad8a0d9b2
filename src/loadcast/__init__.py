"""Lightweight multi-view short-term electrical load forecasting.

The package turns an hourly load/weather table into model inputs by reading
a fixed set of past offsets per view, embeds each view separately, mixes the
views with a small attention encoder/decoder, and trains with a relative
error loss.  Evaluation, rolling-origin backtesting, noise robustness
checks, and embedding interpretability tools ride on the same core.
"""

__version__ = "0.1.0"
