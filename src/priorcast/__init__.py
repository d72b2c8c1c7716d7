"""Cross-modal retrieval by prior selection and reversible label recasting."""

__version__ = "0.1.0"
