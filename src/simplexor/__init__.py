"""XOR-only erasure coding with simplex-style locality and easy repair."""

__version__ = "0.1.0"
