#include "io/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

namespace qoc::io {
namespace {

TEST(IoAmplitudes, RoundTripStream) {
    dynamics::ControlAmplitudes amps{{0.1, -0.2}, {0.30000000001, 0.4}, {-1.0, 1.0}};
    std::stringstream ss;
    write_amplitudes_csv(ss, amps);
    const auto back = read_amplitudes_csv(ss);
    ASSERT_EQ(back.size(), amps.size());
    for (std::size_t k = 0; k < amps.size(); ++k) {
        for (std::size_t j = 0; j < amps[k].size(); ++j) {
            EXPECT_DOUBLE_EQ(back[k][j], amps[k][j]);
        }
    }
}

TEST(IoAmplitudes, RoundTripFile) {
    dynamics::ControlAmplitudes amps{{0.5}, {0.25}};
    const std::string path = "/tmp/qoc_test_amps.csv";
    save_amplitudes(path, amps);
    const auto back = load_amplitudes(path);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_DOUBLE_EQ(back[1][0], 0.25);
    std::remove(path.c_str());
}

TEST(IoAmplitudes, MalformedInputsThrow) {
    {
        std::stringstream ss("not,a,header\n0,1,2\n");
        EXPECT_THROW(read_amplitudes_csv(ss), std::runtime_error);
    }
    {
        std::stringstream ss("slot,u0,u1\n0,1.0\n");  // ragged
        EXPECT_THROW(read_amplitudes_csv(ss), std::runtime_error);
    }
    {
        std::stringstream ss("slot,u0\n0,abc\n");  // non-numeric
        EXPECT_THROW(read_amplitudes_csv(ss), std::runtime_error);
    }
    {
        std::stringstream ss("slot,u0\n");  // empty body
        EXPECT_THROW(read_amplitudes_csv(ss), std::runtime_error);
    }
    EXPECT_THROW(load_amplitudes("/nonexistent/dir/x.csv"), std::runtime_error);
    std::stringstream ss;
    EXPECT_THROW(write_amplitudes_csv(ss, {}), std::invalid_argument);
}

TEST(IoAmplitudes, NonFiniteCellsThrow) {
    // std::stod parses these; an amplitude table must not carry them into
    // the expm loop.
    for (const char* cell : {"nan", "NaN", "inf", "-inf", "infinity", "1e999"}) {
        std::stringstream ss(std::string("slot,u0\n0,") + cell + "\n");
        EXPECT_THROW(read_amplitudes_csv(ss), std::runtime_error) << cell;
    }
}

TEST(IoSamples, NonFiniteCellsThrow) {
    for (const char* row : {"0,nan,0.0", "0,0.0,nan", "0,inf,0.0"}) {
        std::stringstream ss(std::string("t_dt,re,im\n") + row + "\n");
        EXPECT_THROW(read_samples_csv(ss), std::runtime_error) << row;
    }
}

TEST(IoSamples, RoundTrip) {
    std::vector<std::complex<double>> samples{{0.1, -0.3}, {1.0, 0.0}, {0.0, 0.5}};
    std::stringstream ss;
    write_samples_csv(ss, samples);
    const auto back = read_samples_csv(ss);
    ASSERT_EQ(back.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_DOUBLE_EQ(back[k].real(), samples[k].real());
        EXPECT_DOUBLE_EQ(back[k].imag(), samples[k].imag());
    }
}

TEST(IoRbCurve, WritesFitHeaderAndRows) {
    rb::RbCurve curve;
    curve.a = 0.5;
    curve.alpha = 0.999;
    curve.b = 0.5;
    curve.epc = 5e-4;
    curve.points = {{1, 0.99, 0.001}, {100, 0.95, 0.002}};
    std::stringstream ss;
    write_rb_curve_csv(ss, curve);
    const std::string out = ss.str();
    EXPECT_NE(out.find("alpha=0.999"), std::string::npos);
    EXPECT_NE(out.find("length,survival,sem,fit"), std::string::npos);
    EXPECT_NE(out.find("100,0.95"), std::string::npos);
}

}  // namespace
}  // namespace qoc::io
