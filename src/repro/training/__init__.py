"""Training utilities: optimizers over distributed parameters, synthetic and
character-level data, LR schedules, and a scheme-agnostic trainer loop."""
