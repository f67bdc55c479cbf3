/* The random streams and the 2D-UCB allocation rule of procure2d: first
 * numpy's PCG64 arithmetic and the one drawer of reward outcomes, then the
 * only UCB round loop, which draws a table's outcomes when it first reads
 * them, and at the end of the file numpy's stream seeding (SeedSequence's
 * hash, then PCG64's seeding step) and the self-resampling law on the seeded
 * streams.
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
 * overlaps their chains.  ucb_run, the one entry, walks stacked auctions
 * either in such blocks or one at a time.
 *
 * The two forms keep their running best differently.  One auction at a time
 * takes a new best through a conditional jump: in a long auction the same
 * leader wins almost every round, so the CPU predicts the scan's outcome and
 * starts the next round's table load and divide before the compares
 * resolve.  Replaying the 100 auctions of a run_experiment over the ten
 * default budgets with 10 realizations (5.05M rounds, 2-core Xeon, gcc 12),
 * the jump took 0.041-0.042 s against 0.140-0.146 s for the select
 * (maxsd/cmova), with the same outcomes.  A block of lanes keeps the
 * branch-free select: its short auctions change leader often, and its lanes
 * already overlap their chains.  On the 172 batches of procure2d verify
 * seeds 0-3 the select took 0.35-0.36 s, the jump in every block 0.58 s, and
 * -fno-if-conversion on the whole file 0.58 s.
 *
 * ucb_run takes the jump, one auction at a time, for a traced call and from
 * jump_rounds rounds on (_JUMP_ROUNDS in bandit.py, 1,000), and the select,
 * in blocks of LANES, otherwise.  One call on random 5-agent markets took, in
 * select and jump, 0.20 and 0.20 ms at 1,000 rounds and 20 auctions, 1.78
 * and 1.41 ms at 10,000 rounds, and 4.5 and 1.35 ms at 100,000 rounds and 2
 * auctions; below 1,000 rounds the two are close, and on 20,000 random
 * 3-agent auctions of 30 rounds the select took 3.6 ms and the jump 4.1 ms
 * (the README's Performance section has the whole table).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* numpy's PCG64 streams.  A stream is four state words: the 128-bit state,
 * high word first, then the 128-bit increment.  numpy's PCG64 advances the
 * state by state * M + inc and outputs rotr64(hi ^ lo, hi >> 58) of the new
 * state; Generator.random() maps an output x to (x >> 11) * 2**-53 and
 * leaves PCG64's buffered 32-bit half-word alone.  So the functions of this
 * file draw exactly the uniforms numpy would, and a state written back
 * continues the stream where numpy would.
 */
typedef struct {
    uint64_t hi, lo;
} u128;

/* Multiplier M, high word first.  The 128-bit arithmetic is done on 64-bit
 * halves with explicit carries, so no compiler extension is needed. */
static const u128 PCG64_MULT = {0x2360ED051FC65DA4ULL, 0x4385DF649FCCF645ULL};
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

/* M**k and 1 + M + ... + M**(k - 1) mod 2**128, from O(log k) squarings:
 * Brown's jump-ahead (Random number generation with arbitrary strides, 1994),
 * the method of numpy's advance.  k steps take a state s to
 * M**k * s + (1 + M + ... + M**(k - 1)) * inc. */
static void pcg64_jump(int64_t k, u128 *mult, u128 *plus)
{
    u128 zero = {0, 0}, one = {0, 1}, cur_mult = PCG64_MULT, cur_plus = one;
    *mult = one;
    *plus = zero;
    for (uint64_t left = (uint64_t)k; left > 0; left >>= 1) {
        if (left & 1) {
            *mult = muladd128(*mult, cur_mult, zero);
            *plus = muladd128(*plus, cur_mult, cur_plus);
        }
        cur_plus = muladd128(cur_mult, cur_plus, cur_plus);
        cur_mult = muladd128(cur_mult, cur_mult, zero);
    }
}

/* Reward outcomes.  Row i of a realization's n x L table holds uniforms
 * i * L to i * L + L - 1 of its stream, outcome j being u < q_i, so a row
 * can be drawn on its own stream, jumped to i * L, in any number of pieces.
 * A row's stream stands at its next undrawn outcome, and its drawn count
 * says how many it holds.  draw_row is the one drawer: row_streams jumps the
 * rows' streams, draw_rows extends rows, and ucb_lanes extends a row in
 * chunks of DRAW_CHUNK when a pick reaches its drawn count.
 *
 * Draws row[*drawn] to row[to - 1] with quality q on the stream at w, and
 * records to as the drawn count. */
static inline void draw_row(uint64_t *w, double q, uint8_t *row, int64_t *drawn, int64_t to)
{
    u128 state = load128(w), inc = load128(w + 2);
    for (int64_t j = *drawn; j < to; j++)
        row[j] = pcg64_random(&state, inc) < q;
    store128(w, state);
    *drawn = to > *drawn ? to : *drawn;
}

/* The outcomes ucb_lanes draws at once, from a pick that reaches its row's
 * drawn count, never past the row's capacity.  On the cells of the
 * benchmark's trend-grid workload (master seeds 0-7), where the learner and
 * the baselines read 60.5% of the capacity prefixes, chunks of 64 drew 0.5%
 * more than one at a time, chunks of 256 3.4% and of 1,024 17%; a chunk
 * costs a few loads and stores besides its outcomes. */
#define DRAW_CHUNK 64

/* The streams of m tables of n rows, each row width uniforms long: row i of
 * table t starts at uniform i * width of the stream whose words are at
 * roots + 4 * t, and its words are written at rows + 4 * (t * n + i).
 * Returns 0. */
int row_streams(int64_t m, int64_t n, int64_t width, const uint64_t *roots, uint64_t *rows)
{
    u128 mult, plus;
    pcg64_jump(width, &mult, &plus);
    for (int64_t t = 0; t < m; t++) {
        u128 state = load128(roots + 4 * t), inc = load128(roots + 4 * t + 2);
        u128 step = muladd128(plus, inc, (u128){0, 0});
        for (int64_t i = 0; i < n; i++) {
            uint64_t *w = rows + 4 * (t * n + i);
            store128(w, state);
            store128(w + 2, inc);
            state = muladd128(mult, state, step);
        }
    }
    return 0;
}

/* Extends m rows of width outcomes each through to[r] (at most width): row r
 * lies at table + r * width, has quality q[r % n], holds drawn[r] outcomes,
 * and its stream's words are at states + 4 * r.  Returns 0. */
int draw_rows(int64_t m, int64_t n, int64_t width, const double *q, uint64_t *states,
              int64_t *drawn, const int64_t *to, uint8_t *table)
{
    for (int64_t r = 0; r < m; r++)
        draw_row(states + 4 * r, q[r % n], table + r * width, drawn + r,
                 to[r] < width ? to[r] : width);
    return 0;
}

/* Auctions per block.  Replaying the batches of procure2d verify (3 agents,
 * 30 to 50 rounds), 2, 4, 8 and 16 lanes ran within 5% of each other and
 * about a quarter faster than one lane; 4 was the fastest or within 2% of it. */
#define LANES 4

/* Runs lanes (1 to LANES) auctions of n agents over n_rounds rounds that
 * share caps.  Lane l reads its n virtual costs at h + l * n and its
 * n x n_rounds reward table at table + l * n * n_rounds, whose row i holds
 * agent i's outcomes in the order its units are bought; q_hat + l * n is its
 * scratch.  With stream, row i holds drawn[l * n + i] outcomes: a pick that
 * reaches them first draws the row's next DRAW_CHUNK, never past caps[i],
 * with quality quality[i] on the row's stream at states + 4 * (l * n + i).
 * Without, every row is whole, and the three are not read.
 *
 * A seeding pass buys one unit from every agent with capacity; every later
 * round t goes to the agent below capacity with the largest score
 * reward_scale * (q_hat + widths[t] * inv_sqrt[count]) - h, the lowest index
 * on a tie, and the first non-positive best score ends that lane's auction.
 * The other lanes go on.
 *
 * Writes lane l's units and successes to counts + l * n and succ + l * n, and
 * the winner, reward and score of round t to entry t - n of picks, rewards
 * and scores, offset by l * trace_len, while t - n < trace_len; a round t
 * that stops the auction writes only its score: the non-positive best score,
 * or -inf when every agent was at its capacity.
 *
 * branch picks how the scan keeps its best: 1 takes a new best through a
 * jump, which the CPU predicts, 0 through a branch-free select; see the top
 * of the file.  An empty asm statement in the jump's body keeps it a jump:
 * with a plain if, or __builtin_expect, gcc -O2 turns it back into the
 * select.  stream is a constant in the select's calls, so that whole tables
 * get a copy without the drawn-count test: on verify-like batches (3
 * agents, 30 rounds) the test took 5-7% of the select's time.
 *
 * Always inline, so that the compiler specialises each of ucb_run's calls:
 * the jump's one lane drops the lane loop and keeps only the jump, and the
 * select's empty trace drops the trace stores and frees their registers
 * (about 15% of the select's time) and keeps only the select.  Choosing the
 * form inside the loop at run time, by lanes == 1, took 0.63-0.65 s on the
 * verify batches above, against 0.35 s.  A plain inline no longer holds once
 * the loop draws: gcc 12 then calls one shared copy, and the learner's loop
 * ran 30% slower on the benchmark's trend-grid markets.
 */
static inline __attribute__((always_inline)) void
ucb_lanes(int branch, int stream, int64_t lanes, int64_t n, int64_t n_rounds, double reward_scale,
          const double *h, const int64_t *caps, const double *quality, uint64_t *states,
          int64_t *drawn, uint8_t *table, const double *widths, const double *inv_sqrt,
          int64_t *counts, int64_t *succ, double *q_hat, int64_t trace_len, int64_t *picks,
          uint8_t *rewards, double *scores)
{
    int live[LANES];
    for (int64_t l = 0; l < lanes; l++) {
        for (int64_t i = 0; i < n; i++) {
            int64_t k = l * n + i;
            counts[k] = caps[i] >= 1;
            if (stream && counts[k] && drawn[k] == 0)
                draw_row(states + 4 * k, quality[i], table + k * n_rounds, drawn + k,
                         DRAW_CHUNK < caps[i] ? DRAW_CHUNK : caps[i]);
            succ[k] = counts[k] ? table[k * n_rounds] : 0;
            q_hat[k] = (double)succ[k];
        }
        live[l] = 1;
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
                if (t - n < trace_len)
                    scores[l * trace_len + t - n] = best;
                continue;
            }
            int64_t k = l * n + pick;
            if (stream && c[pick] == drawn[k]) {
                int64_t to = c[pick] + DRAW_CHUNK;
                draw_row(states + 4 * k, quality[pick], table + k * n_rounds, drawn + k,
                         to < caps[pick] ? to : caps[pick]);
            }
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

/* p + off, or NULL for a NULL p. */
#define OFFSET(p, off) ((p) ? (p) + (off) : NULL)

/* Stacked auctions that share n, n_rounds and caps (h, counts and succ
 * samples x n, table samples x n x n_rounds): one at a time through the jump
 * when traced (trace_len > 0, sample s's trace at s * trace_len) or from
 * jump_rounds rounds on, else in blocks of LANES (the last may be shorter)
 * through the select.  The rows of streamed tables share quality, and have
 * states samples x n x 4 and drawn samples x n; for whole tables the three
 * are NULL.  Returns 0, or -1 when out of memory. */
int ucb_run(int64_t samples, int64_t n, int64_t n_rounds, double reward_scale,
            const double *h, const int64_t *caps, const double *quality, uint64_t *states,
            int64_t *drawn, uint8_t *table, const double *widths, const double *inv_sqrt,
            int64_t jump_rounds, int64_t *counts, int64_t *succ, int64_t trace_len,
            int64_t *picks, uint8_t *rewards, double *scores)
{
    double *q_hat = malloc(LANES * n * sizeof *q_hat);
    if (q_hat == NULL)
        return -1;
    int stream = drawn != NULL;
    if (trace_len > 0 || n_rounds >= jump_rounds) {
        for (int64_t s = 0; s < samples; s++)
            ucb_lanes(1, stream, 1, n, n_rounds, reward_scale, h + s * n, caps, quality,
                      OFFSET(states, 4 * s * n), OFFSET(drawn, s * n),
                      table + s * n * n_rounds, widths, inv_sqrt, counts + s * n, succ + s * n,
                      q_hat, trace_len, picks + s * trace_len, rewards + s * trace_len,
                      scores + s * trace_len);
    } else {
        for (int64_t s = 0; s < samples; s += LANES) {
            int64_t lanes = samples - s < LANES ? samples - s : LANES;
            if (stream)
                ucb_lanes(0, 1, lanes, n, n_rounds, reward_scale, h + s * n, caps, quality,
                          states + 4 * s * n, drawn + s * n, table + s * n * n_rounds, widths,
                          inv_sqrt, counts + s * n, succ + s * n, q_hat, 0, NULL, NULL, NULL);
            else
                ucb_lanes(0, 0, lanes, n, n_rounds, reward_scale, h + s * n, caps, NULL, NULL,
                          NULL, table + s * n * n_rounds, widths, inv_sqrt, counts + s * n,
                          succ + s * n, q_hat, 0, NULL, NULL, NULL);
        }
    }
    free(q_hat);
    return 0;
}

/* numpy's stream seeding, SeedSequence's hash and PCG64's seeding step, and
 * the self-resampling law on the seeded streams. */

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
 * rows, row r's at states + 4 * r.  The words hold n_pieces pieces end to
 * end, each an entropy or a key as SeedSequence reads it: piece p is
 * lengths[p] words, starting where piece p - 1 ends.  Row r's entropy is
 * piece rows[2r] and its key piece rows[2r + 1].  Returns 0, or -1 when out
 * of memory.
 *
 * A row's words are its entropy's, then, when the key has words, zeros up to
 * POOL_SIZE and the key's.  mix_entropy hashes the first POOL_SIZE words
 * (zeros past the end) into the pool, mixes every pool word into every other,
 * then mixes each later word into every pool word.  generate_state(4, uint64)
 * hashes eight words cycling over the pool, paired little-endian into PCG64's
 * seed and sequence, high word first. */
int seed_streams(int64_t m, const uint32_t *words, int64_t n_pieces, const int64_t *lengths,
                 const int64_t *rows, uint64_t *states)
{
    int64_t *starts = malloc((n_pieces > 0 ? n_pieces : 1) * sizeof *starts);
    if (!starts)
        return -1;
    for (int64_t p = 0, at = 0; p < n_pieces; at += lengths[p++])
        starts[p] = at;
    for (int64_t r = 0; r < m; r++) {
        int64_t e = rows[2 * r], k = rows[2 * r + 1];
        int64_t key_start = lengths[k] > 0 && lengths[e] < POOL_SIZE ? POOL_SIZE : lengths[e];
        int64_t n = key_start + lengths[k];
        uint32_t pool[POOL_SIZE], hash_const = INIT_A;
        for (int64_t j = 0; j < n || j < POOL_SIZE; j++) {
            uint32_t w = j < lengths[e] ? words[starts[e] + j]
                       : j >= key_start && j < n ? words[starts[k] + j - key_start] : 0;
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
    free(starts);
    return 0;
}

/* Passes through the recursion after which a stream gives up: the depth is
 * geometric with mean 1 / (1 - mu), so only a broken mu gets near it. */
#define MAX_RESAMPLE_PASSES 1000000

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
