"""cavshield: multi-vehicle driving simulation with a measurement-robust
CBF safety shield and a safe-robust multi-agent PPO trainer."""

__version__ = "0.1.0"

__all__ = ["__version__"]
