/* The 2D-UCB allocation rule, the only UCB round loop of procure2d, and, at
 * the end of the file, the random streams: numpy's stream seeding
 * (SeedSequence's hash, then PCG64's seeding step) and the self-resampling
 * law on the seeded streams.
 *
 * _native.py compiles this file on first use with -ffp-contract=off, so that
 * no multiply and add are fused and every score is rounded as Python's float
 * arithmetic rounds it.  The bonus widths sqrt(c ln t) and the table of
 * 1 / sqrt(count) (entry 0 is 0.0) come from the caller, which builds them
 * with math.log and math.sqrt, so the scores carry the same bits as those of
 * the reference loop in tests/oracles.py.
 *
 * The loop advances a block of up to LANES independent auctions together,
 * round by round.  One auction's rounds form a single dependency chain (a
 * round's scan needs the previous round's divide), so a lone auction leaves
 * most of the CPU idle; the lanes of a block share no data, and the CPU
 * overlaps their chains.  ucb_batch walks stacked auctions in such blocks;
 * ucb_run is a block of one lane.
 *
 * The two keep their running best differently.  A block of one lane takes a
 * new best through a conditional jump: in a long auction the same leader
 * wins almost every round, so the CPU predicts the scan's outcome and starts
 * the next round's table load and divide before the compares resolve.
 * Replaying the 100 auctions of a run_experiment over the ten default
 * budgets with 10 realizations (5.05M rounds, 2-core Xeon, gcc 12), the jump
 * took 0.041-0.042 s against 0.140-0.146 s for the select (maxsd/cmova),
 * with the same outcomes.  A block of lanes keeps the branch-free select:
 * its short auctions change leader often, and its lanes already overlap
 * their chains.  On the 172 batches of procure2d verify seeds 0-3 the select
 * took 0.35-0.36 s, the jump in every block 0.58 s, and -fno-if-conversion
 * on the whole file 0.58 s.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Auctions per block.  Replaying the batches of procure2d verify (3 agents,
 * 30 to 50 rounds), 2, 4, 8 and 16 lanes ran within 5% of each other and
 * about a quarter faster than one lane; 4 was the fastest or within 2% of it. */
#define LANES 4

/* Runs lanes (1 to LANES) auctions of n agents over n_rounds rounds that
 * share caps.  Lane l reads its n virtual costs at h + l * n and its
 * n x n_rounds reward table at table + l * n * n_rounds, whose row i holds
 * agent i's outcomes in the order its units are bought; q_hat + l * n is its
 * scratch.  A seeding pass buys one unit from every agent with capacity;
 * every later round t goes to the agent below capacity with the largest
 * score reward_scale * (q_hat + widths[t] * inv_sqrt[count]) - h, the lowest
 * index on a tie, and the first non-positive best score ends that lane's
 * auction.  The other lanes go on.
 *
 * Writes lane l's units and successes to counts + l * n and succ + l * n, and
 * the winner, reward and score of round t to entry t - n of picks, rewards
 * and scores, offset by l * trace_len, while t - n < trace_len.  stop[l] gets
 * the round the auction stopped at, n_rounds when the budget ran out, and
 * stop_score[l] the non-positive best score that stopped it, or -inf when the
 * budget ran out or every agent was at its capacity.
 *
 * branch picks how the scan keeps its best: 1 takes a new best through a
 * jump, which the CPU predicts (ucb_run), 0 through a branch-free select
 * (ucb_batch); see the top of the file.  An empty asm statement in the jump's
 * body keeps it a jump: with a plain if, or __builtin_expect, gcc -O2 turns
 * it back into the select.
 *
 * Inline, so that the compiler specialises it in each caller: ucb_run's one
 * lane drops the lane loop and keeps only the jump, and ucb_batch's empty
 * trace drops the trace stores and frees their registers (about 15% of
 * ucb_batch's time) and keeps only the select.  Choosing the form at run
 * time, by lanes == 1, took 0.63-0.65 s on the verify batches above.
 */
static inline void ucb_lanes(int branch, int64_t lanes, int64_t n, int64_t n_rounds,
                             double reward_scale, const double *h, const int64_t *caps,
                             const uint8_t *table, const double *widths, const double *inv_sqrt,
                             int64_t *counts, int64_t *succ, double *q_hat, int64_t trace_len,
                             int64_t *picks, uint8_t *rewards, double *scores,
                             int64_t *stop, double *stop_score)
{
    int live[LANES];
    for (int64_t l = 0; l < lanes; l++) {
        for (int64_t i = 0; i < n; i++) {
            int64_t k = l * n + i;
            counts[k] = caps[i] >= 1;
            succ[k] = counts[k] ? table[k * n_rounds] : 0;
            q_hat[k] = (double)succ[k];
        }
        live[l] = 1;
        stop[l] = n_rounds;
        stop_score[l] = -INFINITY;
    }
    int64_t n_live = lanes;
    for (int64_t t = n; t < n_rounds && n_live > 0; t++) {
        double width = widths[t];
        for (int64_t l = 0; l < lanes; l++) {
            if (!live[l])
                continue;
            int64_t *c = counts + l * n;
            const double *q = q_hat + l * n, *hl = h + l * n;
            double best = -INFINITY;
            int64_t pick = -1;
            for (int64_t j = 0; j < n; j++) {
                double s = reward_scale * (q[j] + width * inv_sqrt[c[j]]) - hl[j];
                int better = c[j] < caps[j] && s > best;
                if (branch) {
                    if (better) {
                        __asm__ volatile("" ::: "memory");
                        best = s;
                        pick = j;
                    }
                } else {
                    best = better ? s : best;
                    pick = better ? j : pick;
                }
            }
            if (pick < 0 || best <= 0.0) {
                /* every agent at reported capacity, or no future units for anyone */
                live[l] = 0;
                n_live--;
                stop[l] = t;
                if (pick >= 0)
                    stop_score[l] = best;
                continue;
            }
            int64_t k = l * n + pick;
            uint8_t r = table[k * n_rounds + c[pick]];
            succ[k] += r;
            c[pick] += 1;
            q_hat[k] = (double)succ[k] / (double)c[pick];
            if (t - n < trace_len) {
                picks[l * trace_len + t - n] = pick;
                rewards[l * trace_len + t - n] = r;
                scores[l * trace_len + t - n] = best;
            }
        }
    }
}

/* One auction, a block of one lane: writes each agent's units and successes
 * to counts and succ, and the trace of rounds n .. n + trace_len - 1 to
 * picks, rewards and scores.  Returns the round the auction stopped at,
 * n_rounds when the budget ran out, or -1 when out of memory.  *stop_score
 * gets the non-positive best score that stopped the auction, or -inf when
 * the budget ran out or every agent was at its capacity.
 */
int64_t ucb_run(int64_t n, int64_t n_rounds, double reward_scale,
                const double *h, const int64_t *caps, const uint8_t *table,
                const double *widths, const double *inv_sqrt,
                int64_t *counts, int64_t *succ, int64_t trace_len,
                int64_t *picks, uint8_t *rewards, double *scores,
                double *stop_score)
{
    double *q_hat = malloc(n * sizeof *q_hat);
    if (q_hat == NULL)
        return -1;
    int64_t stop;
    ucb_lanes(1, 1, n, n_rounds, reward_scale, h, caps, table, widths, inv_sqrt, counts, succ,
              q_hat, trace_len, picks, rewards, scores, &stop, stop_score);
    free(q_hat);
    return stop;
}

/* Stacked auctions that share n, n_rounds and caps, run in blocks of LANES
 * samples (the last block may be shorter): h is samples x n, table
 * samples x n x n_rounds, counts and succ samples x n.  Returns 0, or -1 when
 * out of memory. */
int ucb_batch(int64_t samples, int64_t n, int64_t n_rounds, double reward_scale,
              const double *h, const int64_t *caps, const uint8_t *table,
              const double *widths, const double *inv_sqrt,
              int64_t *counts, int64_t *succ)
{
    double *q_hat = malloc(LANES * n * sizeof *q_hat);
    if (q_hat == NULL)
        return -1;
    int64_t stop[LANES];
    double stop_score[LANES];
    for (int64_t s = 0; s < samples; s += LANES) {
        int64_t lanes = samples - s < LANES ? samples - s : LANES;
        ucb_lanes(0, lanes, n, n_rounds, reward_scale, h + s * n, caps, table + s * n * n_rounds,
                  widths, inv_sqrt, counts + s * n, succ + s * n, q_hat, 0, NULL, NULL, NULL,
                  stop, stop_score);
    }
    free(q_hat);
    return 0;
}

/* numpy's stream seeding, SeedSequence's hash and PCG64's seeding step, and
 * the self-resampling law on numpy's PCG64 streams.
 *
 * A stream is four state words: the 128-bit state, high word first, then the
 * 128-bit increment.  numpy's PCG64 advances the state by state * M + inc and
 * outputs rotr64(hi ^ lo, hi >> 58) of the new state; Generator.random() maps
 * an output x to (x >> 11) * 2**-53 and leaves PCG64's buffered 32-bit
 * half-word alone.  So these functions draw exactly the uniforms numpy would,
 * and a state written back continues the stream where numpy would.
 */
typedef struct {
    uint64_t hi, lo;
} u128;

/* Multiplier M, high word first.  The 128-bit arithmetic is done on 64-bit
 * halves with explicit carries, so no compiler extension is needed. */
static const u128 PCG64_MULT = {0x2360ED051FC65DA4ULL, 0x4385DF649FCCF645ULL};
/* Passes through the recursion after which a stream gives up: the depth is
 * geometric with mean 1 / (1 - mu), so only a broken mu gets near it. */
#define MAX_RESAMPLE_PASSES 1000000

static inline u128 load128(const uint64_t *w)
{
    u128 x = {w[0], w[1]};
    return x;
}

static inline void store128(uint64_t *w, u128 x)
{
    w[0] = x.hi;
    w[1] = x.lo;
}

/* The high word of the 128-bit product a * b, from four 32-bit products. */
static inline uint64_t mulhi64(uint64_t a, uint64_t b)
{
    uint64_t a_lo = (uint32_t)a, a_hi = a >> 32, b_lo = (uint32_t)b, b_hi = b >> 32;
    uint64_t lo_lo = a_lo * b_lo, hi_lo = a_hi * b_lo, lo_hi = a_lo * b_hi;
    uint64_t cross = (lo_lo >> 32) + (uint32_t)hi_lo + lo_hi;
    return a_hi * b_hi + (hi_lo >> 32) + (cross >> 32);
}

/* a * b + c mod 2**128. */
static inline u128 muladd128(u128 a, u128 b, u128 c)
{
    u128 x;
    x.hi = mulhi64(a.lo, b.lo) + a.hi * b.lo + a.lo * b.hi + c.hi;
    x.lo = a.lo * b.lo;
    x.lo += c.lo;
    x.hi += x.lo < c.lo;
    return x;
}

static inline double pcg64_random(u128 *state, u128 inc)
{
    *state = muladd128(*state, PCG64_MULT, inc);
    uint64_t x = state->hi ^ state->lo;
    unsigned rot = (unsigned)(state->hi >> 58);
    x = x >> rot | x << ((64 - rot) & 63);
    return (double)(x >> 11) * (1.0 / 9007199254740992.0);
}

/* PCG64's srandom step: the stream of a seed and sequence, each 128 bits,
 * written as its state words, inc = sequence << 1 | 1 and
 * state = (inc + seed) * M + inc mod 2**128. */
static void pcg64_seed(u128 seed, u128 seq, uint64_t *w)
{
    u128 inc = {seq.hi << 1 | seq.lo >> 63, seq.lo << 1 | 1};
    u128 sum = {seed.hi + inc.hi, seed.lo + inc.lo};
    sum.hi += sum.lo < inc.lo;
    store128(w, muladd128(sum, PCG64_MULT, inc));
    store128(w + 2, inc);
}

/* numpy's SeedSequence hash (numpy/random/bit_generator.pyx) at its default
 * pool size.  hashmix with MULT_A hashes the entropy, with MULT_B
 * generate_state's output. */
#define POOL_SIZE 4
static const uint32_t INIT_A = 0x43B0D7E5, MULT_A = 0x931E8875, INIT_B = 0x8B51F9DD,
                      MULT_B = 0x58F38DED, MIX_MULT_L = 0xCA01F9DD, MIX_MULT_R = 0x4973F715;

static inline uint32_t hashmix(uint32_t value, uint32_t *hash_const, uint32_t mult)
{
    value ^= *hash_const;
    *hash_const *= mult;
    value *= *hash_const;
    return value ^ value >> 16;
}

static inline uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t r = MIX_MULT_L * x - MIX_MULT_R * y;
    return r ^ r >> 16;
}

/* The state words of default_rng(SeedSequence(entropy, spawn_key=key)) for m
 * rows, row r's at states + 4 * r.  Piece p of words, an entropy or a key as
 * SeedSequence reads it, is the pieces[2p + 1] words at words + pieces[2p];
 * row r's entropy is piece rows[2r] and its key piece rows[2r + 1].
 *
 * A row's words are its entropy's, then, when the key has words, zeros up to
 * POOL_SIZE and the key's.  mix_entropy hashes the first POOL_SIZE words
 * (zeros past the end) into the pool, mixes every pool word into every other,
 * then mixes each later word into every pool word.  generate_state(4, uint64)
 * hashes eight words cycling over the pool, paired little-endian into PCG64's
 * seed and sequence, high word first. */
void seed_streams(int64_t m, const uint32_t *words, const int64_t *pieces, const int64_t *rows,
                  uint64_t *states)
{
    for (int64_t r = 0; r < m; r++) {
        const int64_t *e = pieces + 2 * rows[2 * r], *k = pieces + 2 * rows[2 * r + 1];
        int64_t key_start = k[1] > 0 && e[1] < POOL_SIZE ? POOL_SIZE : e[1];
        int64_t n = key_start + k[1];
        uint32_t pool[POOL_SIZE], hash_const = INIT_A;
        for (int64_t j = 0; j < n || j < POOL_SIZE; j++) {
            uint32_t w = j < e[1] ? words[e[0] + j]
                       : j >= key_start && j < n ? words[k[0] + j - key_start] : 0;
            if (j >= POOL_SIZE) {
                for (int dst = 0; dst < POOL_SIZE; dst++)
                    pool[dst] = mix(pool[dst], hashmix(w, &hash_const, MULT_A));
                continue;
            }
            pool[j] = hashmix(w, &hash_const, MULT_A);
            if (j < POOL_SIZE - 1)
                continue;
            /* the pool is full: mix every pool word into every other */
            for (int src = 0; src < POOL_SIZE; src++) {
                for (int dst = 0; dst < POOL_SIZE; dst++) {
                    if (dst != src)
                        pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const, MULT_A));
                }
            }
        }
        uint64_t out[2 * POOL_SIZE];
        hash_const = INIT_B;
        for (int i = 0; i < 2 * POOL_SIZE; i++)
            out[i] = hashmix(pool[i % POOL_SIZE], &hash_const, MULT_B);
        u128 seed = {out[0] | out[1] << 32, out[2] | out[3] << 32};
        u128 seq = {out[4] | out[5] << 32, out[6] | out[7] << 32};
        pcg64_seed(seed, seq, states + 4 * r);
    }
}

/* size draws of the self-resampler on each of m streams: stream s draws at
 * the bids bids + s * size, below cost_hi[s], into alpha + s * size and
 * beta + s * size, and its end state is written back to states + 4 * s.
 *
 * Pass 0 reads size uniforms, draw j moving when the j-th is below mu, then
 * size more, the j-th placing a moving draw's beta uniformly on
 * [bid, cost_hi].  Each later pass reads 2 * size uniforms: a moving draw
 * keeps moving when its j-th is below mu, and then its alpha moves uniformly
 * on [alpha, cost_hi] by the (size + j)-th.  Every pass reads all its
 * uniforms however few draws still move, so streams seeded alike are
 * coupled draw by draw across bids.  A step is x + u * (cost_hi - x), capped
 * at cost_hi.
 *
 * Returns 0; -3, drawing nothing, when a bid is not at most its cost_hi (a
 * NaN bid or bound included); -1 when out of memory; or -2 when a stream is
 * still moving after MAX_RESAMPLE_PASSES passes. */
int resample(int64_t m, int64_t size, double mu, const double *bids, const double *cost_hi,
             uint64_t *states, double *alpha, double *beta)
{
    for (int64_t s = 0; s < m; s++) {
        for (int64_t j = 0; j < size; j++) {
            if (!(bids[s * size + j] <= cost_hi[s]))
                return -3;
        }
    }
    int64_t *moving = malloc((size > 0 ? size : 1) * sizeof *moving);
    if (moving == NULL)
        return -1;
    int status = 0;
    for (int64_t s = 0; s < m && status == 0; s++) {
        const double *bid = bids + s * size;
        double hi = cost_hi[s], *a = alpha + s * size, *b = beta + s * size;
        u128 state = load128(states + 4 * s), inc = load128(states + 4 * s + 2);
        int64_t n_moving = 0;
        for (int64_t j = 0; j < size; j++) {
            if (pcg64_random(&state, inc) < mu)
                moving[n_moving++] = j;
        }
        for (int64_t j = 0, k = 0; j < size; j++) {
            double u = pcg64_random(&state, inc), x = bid[j];
            if (k < n_moving && moving[k] == j) {
                x = x + u * (hi - x);
                x = x > hi ? hi : x;
                k++;
            }
            a[j] = b[j] = x;
        }
        for (int64_t pass = 0; n_moving > 0;) {
            int64_t kept = 0;
            for (int64_t j = 0, k = 0; j < size; j++) {
                double u = pcg64_random(&state, inc);
                if (k < n_moving && moving[k] == j) {
                    if (u < mu)
                        moving[kept++] = j;
                    k++;
                }
            }
            n_moving = kept;
            for (int64_t j = 0, k = 0; j < size; j++) {
                double u = pcg64_random(&state, inc);
                if (k < n_moving && moving[k] == j) {
                    double x = a[j] + u * (hi - a[j]);
                    a[j] = x > hi ? hi : x;
                    k++;
                }
            }
            if (++pass == MAX_RESAMPLE_PASSES) {
                status = -2;
                break;
            }
        }
        store128(states + 4 * s, state);
    }
    free(moving);
    return status;
}
