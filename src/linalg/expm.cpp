#include "linalg/expm.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/lu.hpp"
#include "obs/obs.hpp"

namespace qoc::linalg {

namespace {

constexpr std::array<double, 4> kPade3 = {120.0, 60.0, 12.0, 1.0};
constexpr std::array<double, 6> kPade5 = {30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0};
constexpr std::array<double, 8> kPade7 = {17297280.0, 8648640.0, 1995840.0, 277200.0,
                                          25200.0,    1512.0,    56.0,      1.0};
constexpr std::array<double, 10> kPade9 = {17643225600.0, 8821612800.0, 2075673600.0,
                                           302702400.0,   30270240.0,   2162160.0,
                                           110880.0,      3960.0,       90.0,
                                           1.0};
constexpr std::array<double, 14> kPade13 = {64764752532480000.0,
                                            32382376266240000.0,
                                            7771770303897600.0,
                                            1187353796428800.0,
                                            129060195264000.0,
                                            10559470521600.0,
                                            670442572800.0,
                                            33522128640.0,
                                            1323241920.0,
                                            40840800.0,
                                            960960.0,
                                            16380.0,
                                            182.0,
                                            1.0};

// theta_m thresholds from Higham (2005), Table 2.3.
constexpr double kTheta3 = 1.495585217958292e-2;
constexpr double kTheta5 = 2.539398330063230e-1;
constexpr double kTheta7 = 9.504178996162932e-1;
constexpr double kTheta9 = 2.097847961257068e0;
constexpr double kTheta13 = 5.371920351148152e0;

const double* pade_table(int m) {
    switch (m) {
        case 3: return kPade3.data();
        case 5: return kPade5.data();
        case 7: return kPade7.data();
        case 9: return kPade9.data();
        default: return kPade13.data();
    }
}

/// Picks the Pade order for `nrm = ||A||_1` and, for order 13, the number of
/// scaling steps `s` such that ||A / 2^s||_1 <= theta_13.  Throws
/// `std::invalid_argument` on a non-finite norm (an inf or NaN entry), which
/// no amount of scaling brings under theta_13.
int choose_pade_order(double nrm, int& s) {
    if (!std::isfinite(nrm)) throw std::invalid_argument("expm: non-finite matrix entry");
    s = 0;
    if (nrm <= kTheta3) return 3;
    if (nrm <= kTheta5) return 5;
    if (nrm <= kTheta7) return 7;
    if (nrm <= kTheta9) return 9;
    double scaled = nrm;
    while (scaled > kTheta13) {
        scaled *= 0.5;
        ++s;
    }
    return 13;
}

/// `m += c * I`.
void add_diag(Mat& m, double c) {
    for (std::size_t i = 0; i < m.rows(); ++i) m(i, i) += cplx{c, 0.0};
}

/// One real-coefficient multi-term pass: `y = c_0 x_0 + ... + c_{t-1} x_{t-1}`,
/// or `y += ...` when `accumulate`, in one sweep over the entries.  Per
/// entry the terms are committed left to right, each as a real multiply
/// then a separate add (no fma), which is the rounding of the chain of
/// `y += c_t * x_t` axpys it stands for.
void lincomb(Mat& y, bool accumulate, const double* c, const Mat* const* x,
             std::size_t terms) {
    assert(terms >= 1 && terms <= 4);
    if (!accumulate) y.resize(x[0]->rows(), x[0]->cols());
    const std::size_t len = 2 * y.size();
    auto* yd = reinterpret_cast<double*>(y.data().data());
    const double* xd[4] = {};
    for (std::size_t t = 0; t < terms; ++t) {
        xd[t] = reinterpret_cast<const double*>(x[t]->data().data());
    }
    const std::size_t t0 = accumulate ? 0 : 1;
    for (std::size_t e = 0; e < len; ++e) {
        double acc = accumulate ? yd[e] : c[0] * xd[0][e];
        for (std::size_t t = t0; t < terms; ++t) acc = acc + c[t] * xd[t][e];
        yd[e] = acc;
    }
}

/// `y (+)= c6 x6 + c4 x4 + c2 x2`: the three-term sums of the order-13
/// factored polynomials and of their derivatives.
void lincomb3(Mat& y, bool accumulate, double c6, const Mat& x6, double c4, const Mat& x4,
              double c2, const Mat& x2) {
    const double c[3] = {c6, c4, c2};
    const Mat* x[3] = {&x6, &x4, &x2};
    lincomb(y, accumulate, c, x, 3);
}

/// Forward Pade evaluation: fills every field of `st`, `st.exp()` = e^A.
void pade_forward(const Mat& a, PadeState& st, ExpmWorkspace& ws) {
    const std::size_t n = a.rows();
    int s = 0;
    const int m = choose_pade_order(a.norm_1(), s);
    switch (m) {
        case 3: obs::count(obs::Cnt::kExpmPade3); break;
        case 5: obs::count(obs::Cnt::kExpmPade5); break;
        case 7: obs::count(obs::Cnt::kExpmPade7); break;
        case 9: obs::count(obs::Cnt::kExpmPade9); break;
        default: obs::count(obs::Cnt::kExpmPade13); break;
    }
    st.order = m;
    st.squarings = s;
    const double* b = pade_table(m);

    st.as = a;
    if (s > 0) st.as *= std::ldexp(1.0, -s);
    const Mat& as = st.as;

    // Shared even powers: pows[k] = As^{2k}.  Order 13 needs A^2/A^4/A^6 for
    // the factored polynomials; orders 3..9 need A^2 .. A^{m-1} directly.
    const std::size_t kmax = (m == 13) ? 3 : static_cast<std::size_t>(m - 1) / 2;
    if (st.pows.size() < kmax + 1) st.pows.resize(kmax + 1);
    gemm_into(as, as, st.pows[1]);
    for (std::size_t k = 2; k <= kmax; ++k) gemm_into(st.pows[k - 1], st.pows[1], st.pows[k]);

    // U = A * (odd poly), V = even poly.
    if (m == 13) {
        const Mat& a2 = st.pows[1];
        const Mat& a4 = st.pows[2];
        const Mat& a6 = st.pows[3];
        // w1 = b13 A6 + b11 A4 + b9 A2 ; w = A6 w1 + b7 A6 + b5 A4 + b3 A2 + b1 I
        lincomb3(st.w1, false, b[13], a6, b[11], a4, b[9], a2);
        gemm_into(a6, st.w1, st.w);
        lincomb3(st.w, true, b[7], a6, b[5], a4, b[3], a2);
        add_diag(st.w, b[1]);
        gemm_into(as, st.w, ws.u);
        // z1 = b12 A6 + b10 A4 + b8 A2 ; V = A6 z1 + b6 A6 + b4 A4 + b2 A2 + b0 I
        lincomb3(st.z1, false, b[12], a6, b[10], a4, b[8], a2);
        gemm_into(a6, st.z1, ws.v);
        lincomb3(ws.v, true, b[6], a6, b[4], a4, b[2], a2);
        add_diag(ws.v, b[0]);
    } else {
        double cu[4] = {}, cv[4] = {};
        const Mat* p[4] = {};
        for (std::size_t k = 1; k <= kmax; ++k) {
            cu[k - 1] = b[2 * k + 1];
            cv[k - 1] = b[2 * k];
            p[k - 1] = &st.pows[k];
        }
        st.usum.resize(n, n);
        ws.v.resize(n, n);
        add_diag(st.usum, b[1]);
        add_diag(ws.v, b[0]);
        lincomb(st.usum, true, cu, p, kmax);
        lincomb(ws.v, true, cv, p, kmax);
        gemm_into(as, st.usum, ws.u);
    }

    // r = (V - U)^{-1} (V + U), then its repeated squares.
    ws.t1 = ws.v;
    ws.t1 -= ws.u;
    ws.t2 = ws.v;
    ws.t2 += ws.u;
    st.fact.factor(ws.t1);
    const auto n_sq = static_cast<std::size_t>(s) + 1;
    if (st.squares.size() < n_sq) st.squares.resize(n_sq);
    st.fact.solve_into(ws.t2, st.squares[0]);
    for (std::size_t i = 1; i < n_sq; ++i) {
        gemm_into(st.squares[i - 1], st.squares[i - 1], st.squares[i]);
    }
}

/// `out = L_r(A_s, es)`: the Frechet derivative of the Pade approximant at
/// the scaled generator along an already scaled direction `es`.  `es` must
/// not alias any workspace buffer other than `ws.es`.
void pade_derivative(const PadeState& st, const Mat& es, Mat& out, ExpmWorkspace& ws) {
    const std::size_t n = st.as.rows();
    const int m = st.order;
    const double* b = pade_table(m);
    const Mat& as = st.as;
    // M2 = A E + E A (all in the scaled variables).
    gemm_into(as, es, ws.m2);
    gemm_acc(es, as, ws.m2);
    if (m == 13) {
        const Mat& a2 = st.pows[1];
        const Mat& a4 = st.pows[2];
        const Mat& a6 = st.pows[3];
        // M4 = A2 M2 + M2 A2 ; M6 = M4 A2 + A4 M2.
        gemm_into(a2, ws.m2, ws.m4);
        gemm_acc(ws.m2, a2, ws.m4);
        gemm_into(ws.m4, a2, ws.m6);
        gemm_acc(a4, ws.m2, ws.m6);
        // Lu = A*(M6 w1 + A6 (b13 M6 + b11 M4 + b9 M2)
        //         + b7 M6 + b5 M4 + b3 M2) + E*w
        lincomb3(ws.lw1, false, b[13], ws.m6, b[11], ws.m4, b[9], ws.m2);
        gemm_into(ws.m6, st.w1, ws.lw);
        gemm_acc(a6, ws.lw1, ws.lw);
        lincomb3(ws.lw, true, b[7], ws.m6, b[5], ws.m4, b[3], ws.m2);
        gemm_into(as, ws.lw, ws.lu_m);
        gemm_acc(es, st.w, ws.lu_m);
        // Lv = M6 z1 + A6 (b12 M6 + b10 M4 + b8 M2) + b6 M6 + b4 M4 + b2 M2
        lincomb3(ws.lw1, false, b[12], ws.m6, b[10], ws.m4, b[8], ws.m2);
        gemm_into(ws.m6, st.z1, ws.lv_m);
        gemm_acc(a6, ws.lw1, ws.lv_m);
        lincomb3(ws.lv_m, true, b[6], ws.m6, b[4], ws.m4, b[2], ws.m2);
    } else {
        // M_{2k} = M_{2(k-1)} A2 + A^{2(k-1)} M2, summed into the odd/even
        // derivative polynomials.
        const std::size_t kmax = static_cast<std::size_t>(m - 1) / 2;
        if (ws.mk.size() < kmax + 1) ws.mk.resize(kmax + 1);
        double cu[4] = {}, cv[4] = {};
        const Mat* mk[4] = {};
        for (std::size_t k = 1; k <= kmax; ++k) {
            if (k > 1) {
                gemm_into(*mk[k - 2], st.pows[1], ws.mk[k]);
                gemm_acc(st.pows[k - 1], ws.m2, ws.mk[k]);
            }
            mk[k - 1] = (k == 1) ? &ws.m2 : &ws.mk[k];
            cu[k - 1] = b[2 * k + 1];
            cv[k - 1] = b[2 * k];
        }
        ws.lusum.resize(n, n);
        ws.lv_m.resize(n, n);
        lincomb(ws.lusum, true, cu, mk, kmax);
        lincomb(ws.lv_m, true, cv, mk, kmax);
        // Lu = E * usum + A * lusum.
        gemm_into(es, st.usum, ws.lu_m);
        gemm_acc(as, ws.lusum, ws.lu_m);
    }
    // (V - U) L = Lu + Lv - (Lv - Lu) r, through the stored LU.
    ws.t2 = ws.lv_m;
    ws.t2 -= ws.lu_m;
    ws.rhs = ws.lu_m;
    ws.rhs += ws.lv_m;
    gemm_into(ws.t2, st.squares[0], ws.t1);
    ws.rhs -= ws.t1;
    st.fact.solve_into(ws.rhs, out);
}

}  // namespace

Mat expm(const Mat& a) {
    if (!a.is_square()) throw std::invalid_argument("expm: non-square matrix");
    ExpmWorkspace ws;
    Mat out;
    expm_into(a, out, ws);
    return out;
}

void expm_frechet_multi(const Mat& a, const Mat* dirs, std::size_t n_dirs, Mat& exp_out,
                        Mat* frechet_out, ExpmWorkspace& ws) {
    if (!a.is_square()) throw std::invalid_argument("expm_frechet_multi: non-square matrix");
    for (std::size_t d = 0; d < n_dirs; ++d) {
        if (dirs[d].rows() != a.rows() || dirs[d].cols() != a.cols()) {
            throw std::invalid_argument("expm_frechet_multi: direction shape mismatch");
        }
    }
    assert(n_dirs == 0 || frechet_out != nullptr);
    PadeState& st = ws.pade;
    pade_forward(a, st, ws);
    const double sf = std::ldexp(1.0, -st.squarings);
    for (std::size_t d = 0; d < n_dirs; ++d) {
        ws.es = dirs[d];
        if (st.squarings > 0) ws.es *= sf;
        pade_derivative(st, ws.es, frechet_out[d], ws);
        // Squaring phase: L <- r_i L + L r_i.
        for (int i = 0; i < st.squarings; ++i) {
            const Mat& ri = st.squares[static_cast<std::size_t>(i)];
            gemm_into(ri, frechet_out[d], ws.t1);
            gemm_acc(frechet_out[d], ri, ws.t1);
            std::swap(frechet_out[d], ws.t1);
        }
    }
    exp_out = st.exp();
}

std::pair<Mat, std::vector<Mat>> expm_frechet_multi(const Mat& a,
                                                    const std::vector<Mat>& dirs) {
    ExpmWorkspace ws;
    std::pair<Mat, std::vector<Mat>> out;
    out.second.resize(dirs.size());
    expm_frechet_multi(a, dirs.data(), dirs.size(), out.first, out.second.data(), ws);
    return out;
}

void expm_into(const Mat& a, Mat& out, ExpmWorkspace& ws) {
    expm_frechet_multi(a, nullptr, 0, out, nullptr, ws);
}

void expm_retain(const Mat& a, PadeState& state, ExpmWorkspace& ws) {
    if (!a.is_square()) throw std::invalid_argument("expm_retain: non-square matrix");
    pade_forward(a, state, ws);
}

void expm_frechet_adjoint(const PadeState& state, const Mat& r, Mat& out,
                          ExpmWorkspace& ws) {
    if (r.rows() != state.as.rows() || r.cols() != state.as.cols()) {
        throw std::invalid_argument("expm_frechet_adjoint: shape mismatch");
    }
    assert(&out != &r);
    // G <- r_i G + G r_i for i = s-1 .. 0, starting from G = R.
    ws.es = r;
    for (int i = state.squarings; i-- > 0;) {
        const Mat& ri = state.squares[static_cast<std::size_t>(i)];
        gemm_into(ri, ws.es, ws.t1);
        gemm_acc(ws.es, ri, ws.t1);
        std::swap(ws.es, ws.t1);
    }
    if (state.squarings > 0) ws.es *= std::ldexp(1.0, -state.squarings);
    pade_derivative(state, ws.es, out, ws);
}

}  // namespace qoc::linalg
