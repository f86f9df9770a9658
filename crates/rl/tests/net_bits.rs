//! The policy network's exact bits, pinned.
//!
//! The argmax streams of `golden_streams` only see which logit wins, so
//! a one-ulp drift in a logit, a value or an Adam step would pass them.
//! These hashes cover every bit instead: FNV-1a over `to_bits` of the
//! logits and values that `infer` writes at 1, 3 and 16 rows and that
//! `forward_one` returns, over the JSON of the net after one
//! `Ppo::update`, and over a forward of the updated net. The widths
//! (hidden `[40, 24]`, heads 5/14/1) are not multiples of the kernels'
//! 8- and 16-column tiles, so every partial tile runs.
//!
//! The constants were captured before the forward's `tanh` left the host
//! libm and before its weights were packed once per update; they must
//! not be re-pinned for a kernel change. The PPO update still calls the
//! host libm's `expf`/`logf` (`MaskedCategorical`), so the JSON hash, like
//! `golden_streams`, holds for this libm.

use nn::{InferBuffer, MaskedCategorical, Matrix, NetConfig, PolicyValueNet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rl::{Ppo, PpoConfig, RolloutBatch, Sample};

const OBS: usize = 315;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, v: &[f32]) {
        for f in v {
            self.bytes(&f.to_bits().to_le_bytes());
        }
    }
}

fn net() -> PolicyValueNet {
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let config = NetConfig { obs_dim: OBS, dim_actions: 5, num_actions: 14, hidden: [40, 24] };
    PolicyValueNet::new(config, &mut rng)
}

/// `n` observations like the encoder's: mostly 0/1 bits, with some
/// fractional entries.
fn observations(n: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| {
            (0..OBS)
                .map(|_| match rng.gen_range(0..4u32) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.gen_range(-1.0f32..1.0),
                })
                .collect()
        })
        .collect()
}

fn infer_hash(net: &PolicyValueNet, obs: &[Vec<f32>], buf: &mut InferBuffer) -> u64 {
    let rows: Vec<&[f32]> = obs.iter().map(Vec::as_slice).collect();
    net.infer(&Matrix::from_rows(&rows), buf);
    let mut h = Fnv::new();
    h.floats(&buf.dim_logits.data);
    h.floats(&buf.act_logits.data);
    h.floats(&buf.values.data);
    h.0
}

/// A batch of `n` decisions sampled from `net`, with masked actions and
/// seeded rewards.
fn batch(net: &PolicyValueNet, n: usize, rng: &mut ChaCha8Rng) -> RolloutBatch {
    let mut out = RolloutBatch::default();
    for obs in observations(n, rng) {
        let (dl, al, value) = net.forward_one(&obs);
        let dim_mask: Vec<bool> = (0..5).map(|i| i != 2).collect();
        let act_mask: Vec<bool> = (0..14).map(|i| i % 3 != 1).collect();
        let dim = MaskedCategorical::new(&dl, &dim_mask);
        let act = MaskedCategorical::new(&al, &act_mask);
        let dim_action = dim.sample(rng.gen());
        let act_action = act.sample(rng.gen());
        let reward = rng.gen_range(-2.0f32..1.0);
        out.push_episode(
            vec![Sample {
                obs,
                dim_action,
                act_action,
                dim_mask,
                act_mask,
                log_prob: dim.log_prob(dim_action) + act.log_prob(act_action),
                value,
                reward,
            }],
            f64::from(reward),
        );
    }
    out
}

#[test]
fn forward_bits_are_pinned() {
    let net = net();
    let mut rng = ChaCha8Rng::seed_from_u64(20);
    let obs = observations(16, &mut rng);
    let mut buf = InferBuffer::default();
    let got = [
        infer_hash(&net, &obs[..1], &mut buf),
        infer_hash(&net, &obs[..3], &mut buf),
        infer_hash(&net, &obs, &mut buf),
    ];
    let mut one = Fnv::new();
    for o in &obs {
        let (dim, act, value) = net.forward_one(o);
        one.floats(&dim);
        one.floats(&act);
        one.floats(&[value]);
    }
    let want = [0xe01a_7d29_4eb9_058f, 0x8305_537e_0e43_58ef, 0x585a_aec4_d203_cc01];
    assert_eq!(got, want, "infer at 1, 3 and 16 rows");
    assert_eq!(one.0, 0x2ed6_a549_3f47_6041, "forward_one");
}

#[test]
fn update_bits_are_pinned() {
    let mut net = net();
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let batch = batch(&net, 48, &mut rng);
    let cfg = PpoConfig { minibatch: 16, sgd_iters: 2, ..Default::default() };
    let stats = Ppo::new(cfg, 22).update(&mut net, &batch);
    assert_eq!(stats.epochs, 2);
    let mut json = Fnv::new();
    json.bytes(net.to_json().as_bytes());
    // The updated net's forward reads the updated weights.
    let obs = observations(16, &mut rng);
    let forward = infer_hash(&net, &obs, &mut InferBuffer::default());
    assert_eq!(
        (json.0, forward),
        (0xa322_854e_e408_dd4a, 0x8090_a57d_229c_c5c3),
        "JSON and forward after one update"
    );
}
