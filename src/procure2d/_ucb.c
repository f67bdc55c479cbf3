/* The 2D-UCB allocation rule, the only UCB round loop of procure2d.
 *
 * bandit.py compiles this file on first use with -ffp-contract=off, so that
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
