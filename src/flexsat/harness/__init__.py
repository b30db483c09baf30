"""Experiment harness: metrics, run reports, scenarios, and the CLI."""
