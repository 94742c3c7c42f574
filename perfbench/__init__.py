"""End-to-end and per-layer benchmark of pwl-rotor; see README.md here."""
