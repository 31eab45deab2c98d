"""Decision timing for hidden Markov chains observed through
Markov-modulated compound Poisson arrivals: exact filtering, value
iteration on the belief simplex, epsilon-optimal stopping rules, and
Monte Carlo evaluation."""

__version__ = "0.1.0"

from .model import (MarkModel, ModelSpec, discrete_marks, gamma_marks,
                    load_model, make_model, net_return_rate, no_marks,
                    save_model, terminal_reward, validate_model)
from .filter import (ArrivalEvent, BeliefTrajectory, bayes_update,
                     filter_path, flow, jump_update)
from .grid import SimplexGrid, build_grid
from .valueiter import (FiniteHorizonSolver, StationaryValue, ValueSurface,
                        apply_J, apply_J0, err_infinity, horizon_error,
                        richardson_check, solve_finite, solve_infinite,
                        uniform_error_bound)
from .policy import (Recommendation, StoppingRegion, boundary_curve,
                     continuation_interval, corner_diagnostics,
                     deterministic_stop_time, extract_regions, ila_boundary,
                     recommend, stop_rule, two_hypothesis_diagnostics)
from .sim import (EvalReport, PathSample, evaluate_policy, oracle_value,
                  simulate_path, simulate_paths)
from .presets import load_preset, preset_names
