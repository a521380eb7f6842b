"""One-series forecasters, kept as oracles for :mod:`repro.forecast.kernels`.

These are the classes RCCR and CloudScale once fitted per series; each
kernel must answer every row of a block exactly as the matching class
answers that row alone (``tests/forecast/test_kernels.py``).
"""
