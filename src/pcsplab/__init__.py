"""Workbench for promise constraint satisfaction over symmetric ternary templates."""
