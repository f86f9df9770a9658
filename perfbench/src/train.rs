//! Training: timed `Trainer::train` runs, and the traced run's mirror
//! of the trainer's iterations.
//!
//! `Trainer::step` hides its collect and update calls, so the traced
//! run repeats a finished training's iterations on instances of its
//! own, built exactly as `Trainer::new` builds them from the same rules,
//! configuration and seeds, and times each call. The mirror never
//! shares the trainer's best-tree record, and it must reproduce the
//! trainer's timesteps and best objective exactly.

use crate::tracer::Tracer;
use classbench::RuleSet;
use neurocuts::{NeuroCutsConfig, NeuroCutsEnv, VecEnv};
use nn::{InferBuffer, Matrix, NetConfig, PolicyValueNet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rl::Ppo;

/// Timed repetitions of one batched forward per iteration.
const INFER_REPS: u64 = 16;

/// Totals of a mirrored training.
#[derive(Debug, Default)]
pub struct Mirrored {
    /// Env-steps collected.
    pub timesteps: usize,
    /// Episodes completed.
    pub episodes: usize,
    /// PPO epochs run.
    pub epochs: usize,
    /// Best objective the mirror's own environment recorded.
    pub best_objective: f64,
}

/// Replay `iterations` training iterations of `cfg` on `rules` under
/// spans: `core.trainer.step` around `core.vecenv.collect` and
/// `rl.ppo.update`, then `nn.policy_value.infer` over `num_envs` rows of
/// the iteration's observations.
pub fn mirror(
    rules: &RuleSet,
    cfg: &NeuroCutsConfig,
    iterations: usize,
    t: &mut Tracer,
) -> Mirrored {
    let env = NeuroCutsEnv::new(rules.clone(), cfg.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x006e_6574); // "net", as Trainer::new
    let mut net = PolicyValueNet::new(
        NetConfig {
            obs_dim: env.encoder.obs_dim(),
            dim_actions: env.action_space.dim_actions(),
            num_actions: env.action_space.num_actions(),
            hidden: cfg.hidden,
        },
        &mut rng,
    );
    let mut ppo = Ppo::new(cfg.ppo, cfg.seed);
    let mut vec_env = VecEnv::new(env.clone(), cfg.num_envs.max(1), cfg.seed.wrapping_add(1));
    let mut out = Mirrored::default();
    let mut buf = InferBuffer::default();
    for it in 0..iterations as u64 {
        let step = t.begin("core.trainer.step", it);
        let collect = t.begin("core.vecenv.collect", it);
        let batch = vec_env.collect(&net, cfg.timesteps_per_batch, cfg.workers);
        t.end(collect, batch.len() as u64);
        let stats =
            t.time("rl.ppo.update", it, batch.len() as u64, || ppo.update(&mut net, &batch));
        t.end(step, batch.len() as u64);
        out.timesteps += batch.len();
        out.episodes += batch.episodes;
        out.epochs += stats.epochs;

        let rows: Vec<&[f32]> =
            batch.samples.iter().take(cfg.num_envs.max(1)).map(|s| s.obs.as_slice()).collect();
        let x = Matrix::from_rows(&rows);
        net.infer(&x, &mut buf);
        for r in 0..INFER_REPS {
            t.time("nn.policy_value.infer", it * INFER_REPS + r, rows.len() as u64, || {
                net.infer(&x, &mut buf)
            });
        }
    }
    out.best_objective = env.best().map_or(f64::INFINITY, |b| b.objective);
    out
}
