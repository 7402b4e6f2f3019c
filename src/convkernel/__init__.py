"""Convolutional kernel depth transforms and ridgeless-regression risk analysis."""
