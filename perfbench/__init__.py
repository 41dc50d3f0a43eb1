"""End-to-end, layer-attributed benchmark of the SMALTA update path (see CATALOG.md)."""
