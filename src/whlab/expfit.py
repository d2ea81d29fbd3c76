"""Empty: kept only because the benchmark's layer list (bench/run.py
``LAYERS``) imports it; it goes with that entry."""

__all__ = []
