"""Whole-slot benchmark of the SpotDC market (see WORKLOADS.md)."""
