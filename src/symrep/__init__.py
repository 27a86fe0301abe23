"""symrep: symmetry-structured latent representations of interactive environments.

Observations are encoded onto a unit hypersphere, actions become learnable
special-orthogonal matrices built from products of planar rotations, and an
entanglement penalty drives every action towards rotating a single latent
plane. Trained on interaction trajectories alone, the latent space exposes
the environment's group structure and supports long multi-step prediction
by pure latent rollout.
"""
