"""Reimplementations of the algorithms the paper compares against:
GPU codes in :mod:`repro.baselines.gpu`, CPU codes in
:mod:`repro.baselines.cpu`."""
